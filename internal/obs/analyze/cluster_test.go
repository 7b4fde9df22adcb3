package analyze

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// clusterStepEvents builds the merged timeline of one coordinator step:
// a coordinator wall span plus per-worker RPC and solver (compute)
// spans, in milliseconds.
func clusterStepEvents(trace string, step int64, wallMs int64, workers map[string][2]int64) []obs.Event {
	base := time.Unix(0, 0)
	var out []obs.Event
	for node, d := range workers {
		out = append(out,
			obs.Event{Kind: obs.KindStepRPC, Name: "job", Worker: 0, Node: node,
				Trace: trace, Epoch: step, At: base, Dur: time.Duration(d[0]) * time.Millisecond, A: step},
			obs.Event{Kind: obs.KindShardStep, Name: "job", Worker: -1, Node: node,
				Trace: trace, Epoch: step, At: base, Dur: time.Duration(d[1]) * time.Millisecond, A: step},
		)
	}
	out = append(out, obs.Event{Kind: obs.KindShardStep, Name: "job", Worker: -1, Node: "coord",
		Trace: trace, Epoch: step, At: base, Dur: time.Duration(wallMs) * time.Millisecond, A: step})
	return out
}

func ms(n int64) int64 { return n * int64(time.Millisecond) }

func TestClusterAnalyzeClosureAndStraggler(t *testing.T) {
	// Three workers: rpc/compute (ms). w03 is the straggler.
	events := clusterStepEvents("job#1", 0, 40, map[string][2]int64{
		"w01": {10, 8},
		"w02": {20, 17},
		"w03": {30, 26},
	})
	rep := ClusterAnalyze(events)
	if len(rep.Solves) != 1 || len(rep.Solves[0].Steps) != 1 {
		t.Fatalf("want 1 solve with 1 step, got %+v", rep)
	}
	st := rep.Solves[0].Steps[0]
	if st.WallNs != ms(40) {
		t.Errorf("wall = %d, want %d", st.WallNs, ms(40))
	}
	// compute mean = (8+17+26)/3 = 17, exchange = rpc - compute, mean
	// (2+3+4)/3 = 3, straggler = max rpc 30 - mean rpc 20 = 10,
	// collect = wall 40 - max rpc 30 = 10.
	if st.ComputeNs != ms(17) || st.ExchangeNs != ms(3) || st.StragglerNs != ms(10) || st.CollectNs != ms(10) {
		t.Errorf("attribution = compute %d exchange %d straggler %d collect %d",
			st.ComputeNs, st.ExchangeNs, st.StragglerNs, st.CollectNs)
	}
	if !st.Closed || st.ResidualNs != 0 || st.Verdict != "confirmed" || st.Partial {
		t.Errorf("step not cleanly closed: %+v", st)
	}
	if st.Straggler != "w03" {
		t.Errorf("straggler = %q, want w03", st.Straggler)
	}
	if got := st.ComputeNs + st.ExchangeNs + st.StragglerNs + st.FailoverNs + st.CollectNs; got != st.WallNs {
		t.Errorf("identity: components sum to %d, wall %d", got, st.WallNs)
	}
	if len(st.Workers) != 3 || st.Workers[0].Node != "w01" {
		t.Errorf("lanes = %+v", st.Workers)
	}
	s := rep.Solves[0]
	if len(s.Stragglers) == 0 || s.Stragglers[0].Node != "w03" || s.Stragglers[0].Steps != 1 {
		t.Errorf("straggler tally = %+v", s.Stragglers)
	}
	// share = (3 + 10) / 40
	if want := 13.0 / 40.0; s.ExchangeBarrierShare != want {
		t.Errorf("share = %g, want %g", s.ExchangeBarrierShare, want)
	}
	if !rep.Closed || rep.Truncated {
		t.Errorf("report flags: %+v", rep)
	}
	if err := CheckClusterClosure(rep); err != nil {
		t.Errorf("CheckClusterClosure: %v", err)
	}
}

// TestClusterAnalyzeExchangeIncludesWire: a lane's exchange is its RPC
// minus its solver span, so the wire time of the planes is exchange,
// whatever the worker's own handling span says, and collect is only
// the coordinator's wall past its slowest RPC.
func TestClusterAnalyzeExchangeIncludesWire(t *testing.T) {
	base := time.Unix(0, 0)
	var events []obs.Event
	for _, l := range []struct {
		node                       string
		rpcMs, computeMs, handleMs int64
	}{
		{"w01", 10, 6, 1}, // 3 ms on the wire beyond compute + handling
		{"w02", 14, 7, 2}, // 5 ms
	} {
		span := func(kind obs.Kind, ms int64) obs.Event {
			return obs.Event{Kind: kind, Name: "job", Worker: -1, Node: l.node,
				Trace: "job#1", At: base, Dur: time.Duration(ms) * time.Millisecond}
		}
		events = append(events, span(obs.KindStepRPC, l.rpcMs),
			span(obs.KindShardStep, l.computeMs), span(obs.KindExchange, l.handleMs))
	}
	events = append(events, obs.Event{Kind: obs.KindShardStep, Name: "job", Worker: -1,
		Node: obs.CoordNode, Trace: "job#1", At: base, Dur: 17 * time.Millisecond})

	st := ClusterAnalyze(events).Solves[0].Steps[0]
	for _, w := range st.Workers {
		if w.ExchangeNs != w.RPCNs-w.ComputeNs {
			t.Errorf("lane %s: exchange %d, want rpc %d - compute %d", w.Node, w.ExchangeNs, w.RPCNs, w.ComputeNs)
		}
	}
	// compute mean 6.5, exchange mean (4+7)/2 = 5.5, straggler
	// 14 - 12 = 2, collect = wall 17 - slowest rpc 14 = 3.
	if st.ComputeNs != 6_500_000 || st.ExchangeNs != 5_500_000 || st.StragglerNs != ms(2) || st.CollectNs != ms(3) {
		t.Errorf("attribution = compute %d exchange %d straggler %d collect %d, want 6.5/5.5/2/3 ms",
			st.ComputeNs, st.ExchangeNs, st.StragglerNs, st.CollectNs)
	}
	if !st.Closed || st.Verdict != "confirmed" {
		t.Errorf("step not cleanly closed: %+v", st)
	}
}

func TestClusterAnalyzeRoundingAbsorbedByCollect(t *testing.T) {
	// Sums that do not divide evenly by 3: remainder must land in
	// collect, keeping the identity exact.
	events := clusterStepEvents("job#1", 0, 50, map[string][2]int64{
		"w01": {11, 7},
		"w02": {13, 9},
		"w03": {17, 12},
	})
	rep := ClusterAnalyze(events)
	st := rep.Solves[0].Steps[0]
	if !st.Closed {
		t.Fatalf("step not closed: %+v", st)
	}
	if got := st.ComputeNs + st.ExchangeNs + st.StragglerNs + st.FailoverNs + st.CollectNs + st.ResidualNs; got != st.WallNs {
		t.Errorf("identity: %d != wall %d", got, st.WallNs)
	}
	if err := CheckClusterClosure(rep); err != nil {
		t.Errorf("CheckClusterClosure: %v", err)
	}
}

func TestClusterAnalyzeStragglerTieBreak(t *testing.T) {
	events := clusterStepEvents("job#1", 0, 40, map[string][2]int64{
		"w02": {30, 26},
		"w01": {30, 26},
		"w03": {10, 8},
	})
	rep := ClusterAnalyze(events)
	if got := rep.Solves[0].Steps[0].Straggler; got != "w01" {
		t.Errorf("straggler = %q, want lexicographically first of the tied slowest (w01)", got)
	}
}

func TestClusterAnalyzeFailoverCharge(t *testing.T) {
	events := clusterStepEvents("job#1", 2, 40, map[string][2]int64{
		"w01": {10, 8},
		"w02": {20, 17},
	})
	base := time.Unix(0, 0)
	// A failed round at epoch 2 replayed after 25ms of recovery; the
	// per-worker loss marker (Dur 0) must not be double-counted.
	events = append(events,
		obs.Event{Kind: obs.KindFailover, Name: "w03", Worker: -1, Node: "coord",
			Trace: "job#1", Epoch: 2, At: base, A: 2},
		obs.Event{Kind: obs.KindFailover, Name: "job", Worker: -1, Node: "coord",
			Trace: "job#1", Epoch: 2, At: base, Dur: 25 * time.Millisecond, A: 2, B: 1},
	)
	rep := ClusterAnalyze(events)
	st := rep.Solves[0].Steps[0]
	if st.FailoverNs != ms(25) {
		t.Errorf("failover = %d, want %d", st.FailoverNs, ms(25))
	}
	if st.WallNs != ms(40+25) {
		t.Errorf("wall = %d, want coordinator wall + failover = %d", st.WallNs, ms(65))
	}
	if !st.Closed {
		t.Errorf("step not closed: %+v", st)
	}
	if err := CheckClusterClosure(rep); err != nil {
		t.Errorf("CheckClusterClosure: %v", err)
	}
}

func TestClusterAnalyzeOrphanFailoverInTotals(t *testing.T) {
	events := clusterStepEvents("job#1", 0, 40, map[string][2]int64{
		"w01": {10, 8},
	})
	base := time.Unix(0, 0)
	// Recovery at epoch 5, but the solve aborted before epoch 5 ever
	// completed: the time still belongs to the solve's totals.
	events = append(events, obs.Event{Kind: obs.KindFailover, Name: "job", Worker: -1,
		Node: "coord", Trace: "job#1", Epoch: 5, At: base, Dur: 30 * time.Millisecond, A: 5, B: 1})
	rep := ClusterAnalyze(events)
	s := rep.Solves[0]
	if len(s.Steps) != 1 {
		t.Fatalf("want 1 step, got %d", len(s.Steps))
	}
	if s.Totals.FailoverNs != ms(30) || s.Totals.WallNs != ms(40+30) {
		t.Errorf("totals = wall %d failover %d, want wall %d failover %d",
			s.Totals.WallNs, s.Totals.FailoverNs, ms(70), ms(30))
	}
}

func TestClusterAnalyzePartialDegradation(t *testing.T) {
	// w02's worker-side spans are missing (its ring wrapped): the
	// step must still close, but only plausibly, with w02's RPC
	// charged as compute.
	base := time.Unix(0, 0)
	events := []obs.Event{
		{Kind: obs.KindStepRPC, Name: "job", Node: "w01", Trace: "job#1", Epoch: 0,
			At: base, Dur: 10 * time.Millisecond, A: 0},
		{Kind: obs.KindShardStep, Name: "job", Worker: -1, Node: "w01", Trace: "job#1", Epoch: 0,
			At: base, Dur: 8 * time.Millisecond, A: 0},
		{Kind: obs.KindStepRPC, Name: "job", Node: "w02", Trace: "job#1", Epoch: 0,
			At: base, Dur: 20 * time.Millisecond, A: 0},
		obs.DropMarker(0, 7, base),
		{Kind: obs.KindShardStep, Name: "job", Worker: -1, Node: "coord", Trace: "job#1", Epoch: 0,
			At: base, Dur: 30 * time.Millisecond, A: 0},
	}
	// Node-tag the marker as cluster.ReadTimeline would.
	for i := range events {
		if events[i].Kind == obs.KindTraceDropped {
			events[i].Node = "w02"
		}
	}
	rep := ClusterAnalyze(events)
	st := rep.Solves[0].Steps[0]
	if !st.Partial || st.Verdict != "plausible" {
		t.Errorf("want plausible partial step, got %+v", st)
	}
	if !st.Closed {
		t.Errorf("partial step must still close: %+v", st)
	}
	var w02 *ClusterWorkerStep
	for i := range st.Workers {
		if st.Workers[i].Node == "w02" {
			w02 = &st.Workers[i]
		}
	}
	if w02 == nil || !w02.Partial || w02.ComputeNs != ms(20) || w02.ExchangeNs != 0 {
		t.Errorf("w02 lane = %+v, want partial with compute = rpc", w02)
	}
	if !rep.Truncated || rep.DroppedEvents["w02"] != 7 {
		t.Errorf("truncation not surfaced: %+v", rep)
	}
	if err := CheckClusterClosure(rep); err != nil {
		t.Errorf("CheckClusterClosure: %v", err)
	}
}

func TestClusterAnalyzeNegativeResidualNotClosed(t *testing.T) {
	// The worker's RPC and solver span claim more time than the
	// coordinator's wall: mis-aligned clocks. The analyzer must refuse to close rather
	// than hide the deficit.
	events := clusterStepEvents("job#1", 0, 10, map[string][2]int64{
		"w01": {50, 45},
	})
	rep := ClusterAnalyze(events)
	st := rep.Solves[0].Steps[0]
	if st.Closed || st.ResidualNs >= 0 {
		t.Errorf("want unclosed step with negative residual, got %+v", st)
	}
	if rep.Closed {
		t.Error("report must not claim closure")
	}
	if err := CheckClusterClosure(rep); err == nil {
		t.Error("CheckClusterClosure must fail")
	}
}

func TestClusterAnalyzeIgnoresUntracedEvents(t *testing.T) {
	base := time.Unix(0, 0)
	events := []obs.Event{
		{Kind: obs.KindRegionBegin, Name: "loop", At: base},
		{Kind: obs.KindShardStep, Name: "job", Worker: -1, Node: "coord", At: base,
			Dur: 30 * time.Millisecond}, // no Trace: single-node span
	}
	rep := ClusterAnalyze(events)
	if len(rep.Solves) != 0 {
		t.Errorf("untraced events must not form solves: %+v", rep.Solves)
	}
	if rep.Events != 2 {
		t.Errorf("events = %d, want 2", rep.Events)
	}
}

func TestClusterAnalyzeLastWinsOnReplay(t *testing.T) {
	// The same (worker, step) appears twice — a replay after
	// failover. The later spans win.
	first := clusterStepEvents("job#1", 0, 40, map[string][2]int64{"w01": {25, 20}})
	second := clusterStepEvents("job#1", 0, 30, map[string][2]int64{"w01": {10, 8}})
	events := append(first, second...)
	rep := ClusterAnalyze(events)
	st := rep.Solves[0].Steps[0]
	if st.WallNs != ms(30) || st.ComputeNs != ms(8) {
		t.Errorf("replay must win: %+v", st)
	}
	if len(st.Workers) != 1 {
		t.Errorf("lane duplicated on replay: %+v", st.Workers)
	}
}
