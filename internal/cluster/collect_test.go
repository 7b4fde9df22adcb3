package cluster

import (
	"fmt"
	"sync"
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
// everywhere: one traced local worker per ring capacity plus a traced
// coordinator.
func newTracedCluster(t *testing.T, ringCaps ...int) (*Coordinator, []*LocalWorker, *simclock.Virtual) {
	t.Helper()
	clk := simclock.NewVirtual(time.Unix(0, 0))
	tracer := obs.NewTracer(4096, clk)
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

// newTestCollector wires a collector on clk to the coordinator and its
// workers, sharing the coordinator's tracer.
func newTestCollector(c *Coordinator, clk simclock.Clock, workers []*LocalWorker) *Collector {
	col := NewCollector(CollectorConfig{Clock: clk, Coord: c.Tracer()})
	for _, w := range workers {
		col.AddWorker(w.ID(), w)
	}
	return col
}

// TestCollectorEndToEndClosure is the tentpole obligation: a traced
// 3-worker solve on a virtual clock, with per-worker link delays,
// must merge into a timeline whose cluster attribution closes
// exactly and names a straggler for every step. (Which worker is
// named depends on how far the advance-if-stuck driver ran the clock
// while each RPC goroutine was waking, so only hand-built timelines —
// the analyze unit tests — pin exact identities.)
func TestCollectorEndToEndClosure(t *testing.T) {
	const steps = 4
	c, workers, clk := newTracedCluster(t, 1024, 1024, 1024)
	for i, w := range workers {
		w.SetDelay(time.Duration(i+1) * 10 * time.Millisecond)
	}
	cfg, amp := testCase()
	res := solveAdvancing(t, c, clk, SolveSpec{
		Job:    "obs",
		Config: cfg, PulseAmp: amp, Steps: steps,
	})
	if res.Trace == "" {
		t.Fatal("solve result carries no trace id")
	}

	// Collect with the links fast again: the pulls themselves should
	// not need the advance-if-stuck driver.
	for _, w := range workers {
		w.SetDelay(0)
	}
	col := newTestCollector(c, clk, workers)
	if n := col.SyncClocks(); n != 3 {
		t.Fatalf("SyncClocks reached %d workers, want 3", n)
	}
	for _, st := range col.Stats() {
		if !st.Synced || st.Offset != 0 {
			t.Errorf("worker %s: offset %v under a shared virtual clock, want 0", st.Worker, st.Offset)
		}
	}
	if added := col.Pull(); added == 0 {
		t.Fatal("Pull collected nothing")
	}

	timeline := col.Timeline()
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
// ring mid-solve: the merged timeline must carry its node-tagged
// trace_dropped marker, and the cluster report must degrade that
// worker's affected steps to plausible partial attribution instead of
// mis-closing.
func TestCollectorDropMarkerDegradesToPartial(t *testing.T) {
	const steps = 6
	// w01's ring holds only 3 events; a 6-step solve emits 12 on it.
	c, workers, clk := newTracedCluster(t, 3, 1024, 1024)
	for i, w := range workers {
		w.SetDelay(time.Duration(i+1) * 10 * time.Millisecond)
	}
	cfg, amp := testCase()
	solveAdvancing(t, c, clk, SolveSpec{
		Job:    "wrap",
		Config: cfg, PulseAmp: amp, Steps: steps,
	})
	for _, w := range workers {
		w.SetDelay(0)
	}
	col := newTestCollector(c, clk, workers)
	col.SyncClocks()
	col.Pull()

	marker := false
	for _, e := range col.Timeline() {
		if e.Kind == obs.KindTraceDropped && e.Node == "w01" && e.A > 0 {
			marker = true
		}
	}
	if !marker {
		t.Fatal("merged timeline has no node-tagged trace_dropped marker for w01")
	}

	rep := analyze.ClusterAnalyze(col.Timeline())
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

// TestCollectorSurvivesNodeLossMidPull fails a worker between pulls:
// the collector must record the error, keep the others' events
// flowing, keep the failed worker's cursor, and resume it after
// revival without duplicating or corrupting the timeline.
func TestCollectorSurvivesNodeLossMidPull(t *testing.T) {
	c, workers, clk := newTracedCluster(t, 1024, 1024, 1024)
	col := newTestCollector(c, clk, workers)
	for _, w := range workers {
		w.Tracer().Emit(obs.Event{Kind: obs.KindGrant, Name: "before", Worker: -1})
	}
	if added := col.Pull(); added != 3 {
		t.Fatalf("first pull added %d, want 3", added)
	}

	workers[1].Fail()
	for _, w := range workers {
		w.Tracer().Emit(obs.Event{Kind: obs.KindGrant, Name: "during", Worker: -1})
	}
	if added := col.Pull(); added != 2 {
		t.Fatalf("pull with w02 down added %d, want 2 (survivors only)", added)
	}
	var w02 WorkerTraceStat
	for _, st := range col.Stats() {
		if st.Worker == "w02" {
			w02 = st
		}
	}
	if w02.Errors == 0 || w02.LastErr == "" {
		t.Errorf("w02 failure not recorded: %+v", w02)
	}
	if w02.Cursor != 1 {
		t.Errorf("w02 cursor moved to %d while down, want 1", w02.Cursor)
	}

	workers[1].Recover()
	if added := col.Pull(); added != 1 {
		t.Fatalf("pull after revival added %d, want 1 (the missed event)", added)
	}
	seen := map[string]map[uint64]int{}
	perNode := map[string]int{}
	for _, e := range col.Timeline() {
		if e.Kind != obs.KindGrant {
			continue
		}
		if seen[e.Node] == nil {
			seen[e.Node] = map[uint64]int{}
		}
		seen[e.Node][e.Seq]++
		if seen[e.Node][e.Seq] > 1 {
			t.Fatalf("duplicate event %s/%d in timeline", e.Node, e.Seq)
		}
		perNode[e.Node]++
	}
	for _, id := range []string{"w01", "w02", "w03"} {
		if perNode[id] != 2 {
			t.Errorf("%s: %d filler events in timeline, want 2", id, perNode[id])
		}
	}
}

// TestCollectorConcurrentPulls hammers one collector from many
// goroutines (Pull, SyncClocks, Stats, Timeline) while workers keep
// emitting: no event may be duplicated or lost. Run under -race this
// is the collector's concurrency gate.
func TestCollectorConcurrentPulls(t *testing.T) {
	const perWorker = 200 // on each of three workers
	c, workers, clk := newTracedCluster(t, 4*perWorker, 4*perWorker, 4*perWorker)
	col := newTestCollector(c, clk, workers)

	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *LocalWorker) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				w.Tracer().Emit(obs.Event{Kind: obs.KindChunk, Name: "c", Worker: i})
			}
		}(w)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				col.Pull()
				col.SyncClocks()
				_ = col.Stats()
				_ = col.Timeline()
			}
		}()
	}
	wg.Wait()
	col.Pull()

	perNode := map[string]int{}
	for _, e := range col.Timeline() {
		if e.Kind != obs.KindChunk {
			continue
		}
		perNode[e.Node]++
	}
	for _, w := range workers {
		if got := perNode[w.ID()]; got != perWorker {
			t.Errorf("%s: %d events collected, want exactly %d", w.ID(), got, perWorker)
		}
	}
}

// skewedSource is a TraceSource whose clock runs ahead of the
// collector's by a fixed skew, with a symmetric probe RTT.
type skewedSource struct {
	clk    simclock.Clock
	skew   time.Duration
	rtt    time.Duration
	events []obs.Event
}

func (s *skewedSource) FetchTrace(since uint64) ([]obs.Event, uint64, uint64, error) {
	var out []obs.Event
	for _, e := range s.events {
		if e.Seq >= since {
			out = append(out, e)
		}
	}
	return out, obs.NextCursor(out, since), 0, nil
}

func (s *skewedSource) ClockProbe() (time.Time, time.Duration, error) {
	return s.clk.Now().Add(s.skew), s.rtt, nil
}

// TestCollectorClockAlignment checks the offset estimate and its
// application: a worker whose clock runs 250ms ahead reports events
// timestamped in its own frame; after SyncClocks the merged timeline
// carries them on the collector's clock.
func TestCollectorClockAlignment(t *testing.T) {
	clk := simclock.NewVirtual(time.Unix(0, 0))
	trueAt := clk.Now().Add(5 * time.Millisecond)
	const skew = 250 * time.Millisecond
	src := &skewedSource{clk: clk, skew: skew, events: []obs.Event{
		{Seq: 0, Kind: obs.KindGrant, Name: "filler", Worker: -1, At: trueAt.Add(skew)},
	}}
	col := NewCollector(CollectorConfig{Clock: clk})
	col.AddWorker("w01", src)
	if n := col.SyncClocks(); n != 1 {
		t.Fatalf("SyncClocks reached %d, want 1", n)
	}
	st := col.Stats()[0]
	if st.Offset != skew {
		t.Fatalf("offset = %v, want %v (zero-RTT probe)", st.Offset, skew)
	}
	col.Pull()
	tl := col.Timeline()
	if len(tl) != 1 {
		t.Fatalf("timeline has %d events, want 1", len(tl))
	}
	if !tl[0].At.Equal(trueAt) {
		t.Errorf("aligned At = %v, want %v", tl[0].At, trueAt)
	}
	if tl[0].Node != "w01" {
		t.Errorf("event not node-tagged: %q", tl[0].Node)
	}
}

// TestCollectorNamesWorkersByID: the collector is the one writer of a
// worker's name in the fleet timeline. A pulled event is tagged with
// the ID the worker was added under, whatever Node it arrived with.
func TestCollectorNamesWorkersByID(t *testing.T) {
	clk := simclock.NewVirtual(time.Unix(0, 0))
	src := &skewedSource{clk: clk, events: []obs.Event{
		{Seq: 0, Kind: obs.KindShardStep, Name: "job", Worker: -1},
		{Seq: 1, Kind: obs.KindExchange, Name: "job", Worker: -1, Node: "127.0.0.1:8091"},
	}}
	col := NewCollector(CollectorConfig{Clock: clk})
	col.AddWorker("http://127.0.0.1:8091", src)
	col.Pull()
	for _, e := range col.Timeline() {
		if e.Node != "http://127.0.0.1:8091" {
			t.Errorf("%v event tagged %q, want the worker's ID", e.Kind, e.Node)
		}
	}
}

// TestCollectorRTTMidpoint checks the offset estimator's RTT
// handling: offset = remote - (local + rtt/2).
func TestCollectorRTTMidpoint(t *testing.T) {
	clk := simclock.NewVirtual(time.Unix(0, 0))
	src := &skewedSource{clk: clk, skew: 100 * time.Millisecond, rtt: 40 * time.Millisecond}
	col := NewCollector(CollectorConfig{Clock: clk})
	col.AddWorker("w01", src)
	col.SyncClocks()
	if got, want := col.Stats()[0].Offset, 80*time.Millisecond; got != want {
		t.Errorf("offset = %v, want %v", got, want)
	}
}

// TestCollectorEmitsCollectAndClockSync checks the collector's own
// spans land in the coordinator tracer and the merged timeline.
func TestCollectorEmitsCollectAndClockSync(t *testing.T) {
	c, workers, clk := newTracedCluster(t, 64, 64)
	col := newTestCollector(c, clk, workers)
	workers[0].Tracer().Emit(obs.Event{Kind: obs.KindGrant, Name: "filler", Worker: -1})
	col.SyncClocks()
	col.Pull()
	var sync, collect int
	for _, e := range col.Timeline() {
		switch e.Kind {
		case obs.KindClockSync:
			sync++
			if e.Node != "coord" {
				t.Errorf("clock_sync tagged %q, want coord", e.Node)
			}
		case obs.KindCollect:
			collect++
		}
	}
	if sync != 2 || collect != 2 {
		t.Errorf("timeline has %d clock_sync and %d collect events, want 2 and 2", sync, collect)
	}
}
