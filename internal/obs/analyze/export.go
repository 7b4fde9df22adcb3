package analyze

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
)

// Trace export: the obs.Event stream rendered in the Chrome trace-event
// format ("catapult"). chrome://tracing and Perfetto open the file, and
// speedscope imports the format.

// chromeEvent is one entry of the Chrome trace-event format.
// Timestamps and durations are in microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"` // required on "X" spans, even when 0
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeFile is the object form with a traceEvents array, which both
// chrome://tracing and Perfetto accept.
type chromeFile struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// chromeOf converts one event to its trace-event form, Ts not yet set,
// and returns the time it starts at. Regions, phases, chunks and barrier
// waits become complete ("X") spans — regions and phases on thread 0, a
// worker's chunks and waits on thread worker+1, chunks carrying their
// bounds; scheduler grant/resize/preempt events and drop markers become
// global instant ("i") marks. ok is false for an event the format does not show.
func chromeOf(e obs.Event) (ev chromeEvent, start time.Time, ok bool) {
	loop := e.Name
	if loop == "" {
		loop = "region"
	}
	ev = chromeEvent{Name: loop, Ph: "X", Dur: float64(e.Dur.Nanoseconds()) / 1e3, Pid: 1, Tid: e.Worker + 1}
	switch e.Kind {
	case obs.KindRegionEnd:
		ev.Cat, ev.Tid = "region", 0
		return ev, e.At.Add(-e.Dur), true
	case obs.KindPhase:
		ev.Cat, ev.Tid = "phase", 0
		return ev, e.At.Add(-e.Dur), true
	case obs.KindBarrier:
		ev.Name, ev.Cat = loop+"/barrier", "barrier"
		return ev, e.At.Add(-e.Dur), true
	case obs.KindChunk:
		ev.Name, ev.Cat, ev.Args = loop+"/chunk", "chunk", map[string]any{"lo": e.A, "hi": e.B}
		return ev, e.At.Add(-e.Dur), true
	case obs.KindGrant:
		ev.Args = map[string]any{"granted": e.A, "requested": e.B}
	case obs.KindResize:
		ev.Args = map[string]any{"from": e.A, "to": e.B, "requested": e.C}
	case obs.KindPreempt:
		ev.Args = map[string]any{"cur": e.A, "lower": e.B, "requested": e.C}
	case obs.KindTraceDropped:
		ev.Args = map[string]any{"dropped": e.A}
	default:
		return chromeEvent{}, time.Time{}, false
	}
	ev.Name = e.Kind.String()
	if e.Name != "" {
		ev.Name += ":" + e.Name
	}
	ev.Cat, ev.Ph, ev.Dur, ev.Tid, ev.S = "sched", "i", 0, 0, "g"
	return ev, e.At, true
}

// WriteChromeTrace renders the trace in Chrome trace-event format (see
// chromeOf), timed from the earliest event it shows, with each thread
// named: "regions" and "worker N".
func WriteChromeTrace(w io.Writer, events []obs.Event) error {
	var epoch time.Time
	for _, e := range events {
		if _, start, ok := chromeOf(e); ok && (epoch.IsZero() || start.Before(epoch)) {
			epoch = start
		}
	}
	out := chromeFile{TraceEvents: []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "trace"}},
		{Name: "thread_name", Ph: "M", Pid: 1, Tid: 0, Args: map[string]any{"name": "regions"}},
	}}
	named := map[int]bool{0: true}
	for _, e := range events {
		ev, start, ok := chromeOf(e)
		if !ok {
			continue
		}
		ev.Ts = float64(start.Sub(epoch).Nanoseconds()) / 1e3
		if !named[ev.Tid] {
			named[ev.Tid] = true
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: 1, Tid: ev.Tid,
				Args: map[string]any{"name": fmt.Sprintf("worker %d", ev.Tid-1)},
			})
		}
		out.TraceEvents = append(out.TraceEvents, ev)
	}
	return json.NewEncoder(w).Encode(out)
}
