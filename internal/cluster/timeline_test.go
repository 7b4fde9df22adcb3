package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// solveAdvancing runs a solve in a goroutine while advancing the
// virtual clock whenever the workload is stuck on injected latency.
func solveAdvancing(t *testing.T, c *Coordinator, clk *simclock.Virtual, spec SolveSpec) SolveResult {
	t.Helper()
	type out struct {
		res SolveResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := c.Solve(spec)
		done <- out{res, err}
	}()
	deadline := time.After(60 * time.Second)
	for {
		select {
		case o := <-done:
			if o.err != nil {
				t.Fatalf("solve: %v", o.err)
			}
			return o.res
		case <-deadline:
			t.Fatal("solve did not terminate")
		default:
			if !clk.AdvanceToNext() {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}
}

// newTracedCluster builds a virtual-clock cluster with tracing on
// everywhere: a traced coordinator whose ring holds coordCap events and
// one traced local worker per ring capacity.
func newTracedCluster(t *testing.T, coordCap int, ringCaps ...int) (*Coordinator, []*LocalWorker, *simclock.Virtual) {
	t.Helper()
	clk := simclock.NewVirtual(time.Unix(0, 0))
	tracer := obs.NewTracer(coordCap, clk)
	tracer.Enable()
	c := New(Config{Tracer: tracer})
	workers := make([]*LocalWorker, len(ringCaps))
	for i := range workers {
		id := fmt.Sprintf("w%02d", i+1)
		ring := obs.NewTracer(ringCaps[i], clk)
		ring.Enable()
		workers[i] = NewLocalWorker(id, sched.Config{Clock: clk, Tracer: ring})
		if err := c.Register(id, workers[i]); err != nil {
			t.Fatalf("register %s: %v", id, err)
		}
	}
	return c, workers, clk
}

// sources keys the workers by their IDs, as a coordinator registers
// them.
func sources(workers []*LocalWorker) map[string]TraceSource {
	out := make(map[string]TraceSource, len(workers))
	for _, w := range workers {
		out[w.ID()] = w
	}
	return out
}

// solveTraced runs a traced solve of steps over links delayed 10, 20,
// 30 … ms, then clears the delays so the trace reads need no clock
// advance.
func solveTraced(t *testing.T, c *Coordinator, workers []*LocalWorker, clk *simclock.Virtual, job string, steps int) SolveResult {
	t.Helper()
	for i, w := range workers {
		w.SetDelay(time.Duration(i+1) * 10 * time.Millisecond)
	}
	cfg, amp := testCase()
	res := solveAdvancing(t, c, clk, SolveSpec{Job: job, Config: cfg, PulseAmp: amp, Steps: steps})
	for _, w := range workers {
		w.SetDelay(0)
	}
	return res
}

// readTimeline reads the cluster's fleet timeline, failing the test on
// any worker's read error.
func readTimeline(t *testing.T, c *Coordinator, workers []*LocalWorker) []obs.Event {
	t.Helper()
	tl, err := ReadTimeline(c.Tracer(), sources(workers))
	if err != nil {
		t.Fatalf("read timeline: %v", err)
	}
	return tl
}

// TestCollectorEndToEndClosure: a traced 3-worker solve on a virtual
// clock, with per-worker link delays, read once into a fleet timeline
// whose cluster attribution closes exactly and names a straggler for
// every step. (Which worker is named depends on how far the
// advance-if-stuck driver ran the clock while each RPC goroutine was
// waking, so only hand-built timelines — the analyze unit tests — pin
// exact identities.)
func TestCollectorEndToEndClosure(t *testing.T) {
	const steps = 4
	c, workers, clk := newTracedCluster(t, 4096, 1024, 1024, 1024)
	res := solveTraced(t, c, workers, clk, "obs", steps)
	if res.Trace == "" {
		t.Fatal("solve result carries no trace id")
	}

	timeline := readTimeline(t, c, workers)
	seenNode := map[string]bool{}
	for _, e := range timeline {
		if e.Node == "" {
			t.Fatalf("timeline event without node tag: %+v", e)
		}
		seenNode[e.Node] = true
	}
	for _, id := range []string{"coord", "w01", "w02", "w03"} {
		if !seenNode[id] {
			t.Errorf("timeline has no events from %s", id)
		}
	}

	rep := analyze.ClusterAnalyze(timeline)
	if len(rep.Solves) != 1 {
		t.Fatalf("want 1 solve in report, got %d", len(rep.Solves))
	}
	solve := rep.Solves[0]
	if solve.Trace != res.Trace {
		t.Errorf("report trace %q, result trace %q", solve.Trace, res.Trace)
	}
	if len(solve.Steps) != steps {
		t.Fatalf("report has %d steps, want %d", len(solve.Steps), steps)
	}
	if !rep.Closed || rep.Truncated {
		t.Fatalf("report not cleanly closed: closed=%v truncated=%v", rep.Closed, rep.Truncated)
	}
	if err := analyze.CheckClusterClosure(rep); err != nil {
		t.Fatalf("closure: %v", err)
	}
	for _, st := range solve.Steps {
		// Virtual time only advances inside the injected link delays,
		// so every step's wall covers at least the slowest link.
		if st.WallNs < int64(30*time.Millisecond) {
			t.Errorf("step %d: wall %d, want >= 30ms", st.Step, st.WallNs)
		}
		if st.Straggler == "" || st.StragglerNs < 0 {
			t.Errorf("step %d: no straggler named (%q, %dns)", st.Step, st.Straggler, st.StragglerNs)
		}
		if len(st.Workers) != 3 {
			t.Errorf("step %d: %d lanes, want 3", st.Step, len(st.Workers))
		}
		if st.Verdict != "confirmed" {
			t.Errorf("step %d: verdict %q", st.Step, st.Verdict)
		}
	}
	if len(solve.Stragglers) == 0 {
		t.Error("no straggler tally")
	}
}

// TestCollectorDropMarkerDegradesToPartial wraps one worker's tiny
// ring mid-solve: the timeline must carry its node-tagged
// trace_dropped marker, and the cluster report must degrade that
// worker's affected steps to plausible partial attribution instead of
// mis-closing.
func TestCollectorDropMarkerDegradesToPartial(t *testing.T) {
	// w01's ring holds only 3 events; a 6-step solve emits 12 on it.
	c, workers, clk := newTracedCluster(t, 4096, 3, 1024, 1024)
	solveTraced(t, c, workers, clk, "wrap", 6)
	timeline := readTimeline(t, c, workers)

	marker := false
	for _, e := range timeline {
		if e.Kind == obs.KindTraceDropped && e.Node == "w01" && e.A > 0 {
			marker = true
		}
	}
	if !marker {
		t.Fatal("timeline has no node-tagged trace_dropped marker for w01")
	}

	rep := analyze.ClusterAnalyze(timeline)
	if !rep.Truncated || rep.DroppedEvents["w01"] == 0 {
		t.Fatalf("report does not surface the wrap: %+v", rep)
	}
	solve := rep.Solves[0]
	if !solve.Partial {
		t.Fatal("solve with dropped worker spans must be partial")
	}
	partialSteps := 0
	for _, st := range solve.Steps {
		if st.Partial {
			partialSteps++
			if st.Verdict != "plausible" {
				t.Errorf("step %d partial but verdict %q", st.Step, st.Verdict)
			}
		}
		if !st.Closed {
			t.Errorf("step %d: partial attribution must still close, got %+v", st.Step, st)
		}
	}
	if partialSteps == 0 {
		t.Error("no step degraded to partial despite the wrap")
	}
	if err := analyze.CheckClusterClosure(rep); err != nil {
		t.Errorf("closure after degradation: %v", err)
	}
}

// TestReadTimelineMarksWrappedCoordRing: a coordinator ring of 16
// events over a 3-worker solve wraps. The timeline must say so with a
// coord-tagged trace_dropped marker, so the report reads truncated
// instead of silently ranking the steps that survived.
func TestReadTimelineMarksWrappedCoordRing(t *testing.T) {
	c, workers, clk := newTracedCluster(t, 16, 1024, 1024, 1024)
	solveTraced(t, c, workers, clk, "coordwrap", 4)
	if c.Tracer().Dropped() == 0 {
		t.Fatal("the 16-event coordinator ring did not wrap; the test proves nothing")
	}
	rep := analyze.ClusterAnalyze(readTimeline(t, c, workers))
	if !rep.Truncated || rep.DroppedEvents[obs.CoordNode] != c.Tracer().Dropped() {
		t.Errorf("report truncated=%v dropped %v, want coord's %d lost events named",
			rep.Truncated, rep.DroppedEvents, c.Tracer().Dropped())
	}
}

// TestCollectorSurvivesNodeLossMidPull: one worker's read answers
// ErrWorkerDown. The timeline still holds the others' events, and the
// error names the worker that was left out.
func TestCollectorSurvivesNodeLossMidPull(t *testing.T) {
	c, workers, _ := newTracedCluster(t, 4096, 1024, 1024, 1024)
	for _, w := range workers {
		w.Tracer().Emit(obs.Event{Kind: obs.KindGrant, Name: "filler", Worker: -1})
	}
	workers[1].Fail()
	tl, err := ReadTimeline(c.Tracer(), sources(workers))
	if !errors.Is(err, ErrWorkerDown) || !strings.Contains(err.Error(), "w02") {
		t.Errorf("err = %v, want ErrWorkerDown naming w02", err)
	}
	perNode := map[string]int{}
	for _, e := range tl {
		perNode[e.Node]++
	}
	if perNode["w01"] != 1 || perNode["w02"] != 0 || perNode["w03"] != 1 {
		t.Errorf("events per node %v, want one each from w01 and w03, none from w02", perNode)
	}
}

// fixedSource is a TraceSource that answers a fixed batch.
type fixedSource []obs.Event

func (s fixedSource) FetchTrace() ([]obs.Event, error) { return append([]obs.Event(nil), s...), nil }

// TestCollectorNamesWorkersByID: ReadTimeline is the one writer of a
// worker's name in the fleet timeline. An event read from a worker is
// tagged with the ID the worker is keyed by, whatever Node it arrived
// with.
func TestCollectorNamesWorkersByID(t *testing.T) {
	src := fixedSource{
		{Seq: 0, Kind: obs.KindShardStep, Name: "job", Worker: -1},
		{Seq: 1, Kind: obs.KindExchange, Name: "job", Worker: -1, Node: "127.0.0.1:8091"},
	}
	tl, err := ReadTimeline(nil, map[string]TraceSource{"http://127.0.0.1:8091": src})
	if err != nil || len(tl) != 2 {
		t.Fatalf("timeline %v, err %v, want the 2 events", tl, err)
	}
	for _, e := range tl {
		if e.Node != "http://127.0.0.1:8091" {
			t.Errorf("%v event tagged %q, want the worker's ID", e.Kind, e.Node)
		}
	}
}
