package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"

	"repro/internal/obs"
)

// The daemon's observability surface:
//
//	GET  /metrics       Prometheus text: scheduler counters/gauges,
//	                    grant-size histogram, tracer accounting
//	GET  /trace         JSONL dump of the sync-event trace ring;
//	                    ?since=<seq> resumes from a cursor, and the
//	                    X-Trace-Dropped / X-Trace-Next headers report
//	                    ring-wraparound losses and the next cursor
//	GET  /trace/stream  SSE live tail of the same ring, sharing the
//	                    ?since= cursor (and Last-Event-ID) semantics
//	GET  /analyze       trace-analysis report (internal/obs/analyze)
//	GET  /dash          self-contained HTML dashboard over the two
//	POST /trace/enable  {"enabled":bool,"reset":bool} toggle; empty
//	                    body enables
//
// Tracing ships disabled: every instrumentation site in parloop and
// sched then costs one atomic load. An operator turns it on for a
// profiling window, pulls /trace, and feeds the JSONL to
// internal/profile for the paper's ranked-loop workflow — or lets
// /analyze do the diagnosis server-side.

// registerObsMetrics adds the daemon-level tracer gauges to the
// scheduler's registry. GaugeFunc re-registration replaces, so
// rebuilding a server over one registry is safe.
func (sv *server) registerObsMetrics() {
	tr := sv.sched.Tracer()
	reg := sv.sched.Registry()
	reg.GaugeFunc("trace_enabled", "Whether the sync-event tracer is recording (0/1).", func() float64 {
		if tr.Enabled() {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("trace_events", "Events currently held in the trace ring buffer.", func() float64 {
		return float64(tr.Len())
	})
	reg.GaugeFunc("trace_events_dropped", "Events overwritten in the ring before export.", func() float64 {
		return float64(tr.Dropped())
	})
}

// handleMetrics renders the registry in the Prometheus text exposition
// format. The counters are lock-free atomics and the derived gauges
// take the scheduler mutex themselves, so concurrent scrapes are safe
// at any load.
func (sv *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := sv.sched.Registry().WritePrometheus(w); err != nil {
		// Headers are gone; all we can do is drop the connection.
		return
	}
}

// handleTrace streams the trace ring as JSONL, oldest event first.
// With ?since=<seq> only events at or after that sequence are
// returned (the cursor protocol shared with /trace/stream: after
// processing a batch, resume from the X-Trace-Next header value). If
// ring wraparound dropped events from the requested window, the first
// line is a synthetic trace_dropped marker and X-Trace-Dropped
// carries the count — the caveat that a fixed-capacity ring cannot
// answer arbitrarily old cursors exactly.
func (sv *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	since, ok := traceSince(w, r)
	if !ok {
		return
	}
	events, dropped := sv.sched.Tracer().EventsSince(since)
	next := obs.NextCursor(events, since)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Trace-Dropped", strconv.FormatUint(dropped, 10))
	w.Header().Set("X-Trace-Next", strconv.FormatUint(next, 10))
	enc := json.NewEncoder(w)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return
		}
	}
}

// traceSince parses the ?since= cursor (0 when absent), replying 400
// on garbage.
func traceSince(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	s := r.URL.Query().Get("since")
	if s == "" {
		return 0, true
	}
	since, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad since cursor "+strconv.Quote(s))
		return 0, false
	}
	return since, true
}

// traceEnableRequest is the POST /trace/enable body. An empty body
// means {"enabled": true}.
type traceEnableRequest struct {
	Enabled *bool `json:"enabled"`
	// Reset discards the ring's current contents before (or while)
	// toggling — the start of a clean profiling window.
	Reset bool `json:"reset"`
}

// traceStatus is the /trace/enable response.
type traceStatus struct {
	Enabled bool   `json:"enabled"`
	Events  int    `json:"events"`
	Dropped uint64 `json:"dropped"`
}

func (sv *server) handleTraceEnable(w http.ResponseWriter, r *http.Request) {
	var req traceEnableRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	tr := sv.sched.Tracer()
	if req.Reset {
		tr.Reset()
	}
	enable := req.Enabled == nil || *req.Enabled
	if enable {
		tr.Enable()
	} else {
		tr.Disable()
	}
	writeJSON(w, http.StatusOK, traceStatus{
		Enabled: tr.Enabled(),
		Events:  tr.Len(),
		Dropped: tr.Dropped(),
	})
}
