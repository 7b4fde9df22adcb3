package analyze

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
)

// base is the deterministic trace epoch used by all tests.
var base = time.Date(2001, 9, 1, 0, 0, 0, 0, time.UTC)

// seqTrace assigns ascending Seq values to hand-built events.
func seqTrace(events []obs.Event) []obs.Event {
	for i := range events {
		events[i].Seq = uint64(i + 1)
	}
	return events
}

// TestStairStepOccupancyMatchesTable3 is the acceptance criterion: on
// an idealized 15-unit workload swept over team sizes 1..15, measured
// occupancy must reproduce the paper's Table 3 within 1% — in
// particular speedup 5.0 across P=5–7 and 7.5 across P=8–14 — and the
// detected plateaus must be exactly the printed rows
// (1, 2, 3, 4, 5–7, 8–14, 15).
func TestStairStepOccupancyMatchesTable3(t *testing.T) {
	sizes := make([]int, 15)
	for i := range sizes {
		sizes[i] = i + 1
	}
	events := StairStepTrace("zone", 15, sizes, time.Millisecond, 100*time.Microsecond, base)
	r := Analyze(events)

	if len(r.Occupancy) != 15 {
		t.Fatalf("occupancy cells = %d, want 15", len(r.Occupancy))
	}
	for _, c := range r.Occupancy {
		if c.Units != 15 {
			t.Errorf("cell units = %d, want 15", c.Units)
		}
		want := model.StairStepSpeedup(15, c.Workers)
		if c.PredictedSpeedup != want {
			t.Errorf("P=%d predicted = %v, want %v", c.Workers, c.PredictedSpeedup, want)
		}
		if err := math.Abs(c.MeasuredSpeedup-want) / want; err > 0.01 {
			t.Errorf("P=%d measured speedup %v vs predicted %v: err %.2f%% > 1%%",
				c.Workers, c.MeasuredSpeedup, want, 100*err)
		}
		if c.Workers >= 5 && c.Workers <= 7 && math.Abs(c.MeasuredSpeedup-5.0) > 0.05 {
			t.Errorf("P=%d measured speedup %v, want 5.0 within 1%%", c.Workers, c.MeasuredSpeedup)
		}
		if c.Workers >= 8 && c.Workers <= 14 && math.Abs(c.MeasuredSpeedup-7.5) > 0.075 {
			t.Errorf("P=%d measured speedup %v, want 7.5 within 1%%", c.Workers, c.MeasuredSpeedup)
		}
	}

	table := model.Table3()
	if len(r.Plateaus) != len(table) {
		t.Fatalf("plateaus = %d, want %d (Table 3 rows)", len(r.Plateaus), len(table))
	}
	for i, row := range table {
		p := r.Plateaus[i]
		if p.ProcsLo != row.ProcsLo || p.ProcsHi != row.ProcsHi {
			t.Errorf("plateau %d procs [%d,%d], want [%d,%d]", i, p.ProcsLo, p.ProcsHi, row.ProcsLo, row.ProcsHi)
		}
		if math.Abs(p.MeasuredSpeedup-row.Speedup) > row.Speedup*0.01 {
			t.Errorf("plateau %d speedup %v, want %v within 1%%", i, p.MeasuredSpeedup, row.Speedup)
		}
	}
}

// TestAttributionSumsToWall: on both idealized and barrier-heavy
// traces, the attribution components must sum to wall time within
// 0.5% (the acceptance bound; by construction the residual is integer
// rounding only).
func TestAttributionSumsToWall(t *testing.T) {
	events := StairStepTrace("zone", 15, []int{1, 3, 5, 8, 15}, time.Millisecond, 250*time.Microsecond, base)
	events = append(events, seqTrace(barrierRegionEvents("mix", base.Add(time.Second), time.Nanosecond))...)
	r := Analyze(events)

	if len(r.Loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(r.Loops))
	}
	for _, l := range r.Loops {
		a := l.Attribution
		sum := a.ParallelNs + a.SerialNs + a.BarrierNs + a.ImbalanceNs + a.SyncNs
		if a.WallNs == 0 {
			t.Fatalf("%s: zero wall", l.Name)
		}
		if err := math.Abs(float64(a.WallNs-sum)) / float64(a.WallNs); err > 0.005 {
			t.Errorf("%s: attribution sum %d vs wall %d: err %.3f%% > 0.5%%", l.Name, sum, a.WallNs, 100*err)
		}
		if a.ResidualNs != a.WallNs-sum {
			t.Errorf("%s: residual %d inconsistent with components", l.Name, a.ResidualNs)
		}
		fracs := a.ParallelFrac + a.SerialFrac + a.BarrierFrac + a.ImbalanceFrac + a.SyncFrac
		if math.Abs(fracs-1) > 0.005 {
			t.Errorf("%s: fractions sum to %v, want 1 within 0.5%%", l.Name, fracs)
		}
	}
}

// barrierRegionEvents hand-builds one two-worker region with a
// mid-region barrier and known timings, in units of unit:
//
//	phase 0: w0 works 40 on [0,4), w1 works 20 on [4,6)
//	barrier: w0 waits 0, w1 waits 20 (both cross at t0+40)
//	phase 1: w0 works 20 on [6,8), w1 works 60 on [8,14)
//	region end at t0+100, span 100
//
// Critical path = max(40,20) + max(20,60) = 100; work = 140.
func barrierRegionEvents(name string, t0 time.Time, unit time.Duration) []obs.Event {
	ns := func(d int64) time.Duration { return time.Duration(d) * unit }
	return []obs.Event{
		{At: t0, Kind: obs.KindRegionBegin, Name: name, Worker: -1, A: 2},
		{At: t0.Add(ns(40)), Kind: obs.KindChunk, Name: name, Worker: 0, Dur: ns(40), A: 0, B: 4},
		{At: t0.Add(ns(20)), Kind: obs.KindChunk, Name: name, Worker: 1, Dur: ns(20), A: 4, B: 6},
		{At: t0.Add(ns(40)), Kind: obs.KindBarrier, Name: name, Worker: 0, Dur: 0},
		{At: t0.Add(ns(40)), Kind: obs.KindBarrier, Name: name, Worker: 1, Dur: ns(20)},
		{At: t0.Add(ns(60)), Kind: obs.KindChunk, Name: name, Worker: 0, Dur: ns(20), A: 6, B: 8},
		{At: t0.Add(ns(100)), Kind: obs.KindChunk, Name: name, Worker: 1, Dur: ns(60), A: 8, B: 14},
		{At: t0.Add(ns(100)), Kind: obs.KindRegionEnd, Name: name, Worker: -1, Dur: ns(100), A: 2},
	}
}

// TestCriticalPathGolden checks the per-worker phase-split critical
// path and the exact attribution on the hand-built barrier region.
func TestCriticalPathGolden(t *testing.T) {
	// In µs: the modeled sync cap is 2 events × model.RegionNs /
	// 2 procs = RegionNs, so the 20 µs in-region remainder splits into
	// RegionNs of sync and the rest imbalance.
	events := seqTrace(barrierRegionEvents("r", base, time.Microsecond))
	r := Analyze(events)

	if len(r.Loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(r.Loops))
	}
	l := r.Loops[0]
	if l.Regions != 1 || l.Barriers != 1 || l.SyncEvents != 2 {
		t.Errorf("regions/barriers/sync = %d/%d/%d, want 1/1/2", l.Regions, l.Barriers, l.SyncEvents)
	}
	if l.Workers != 2 || l.Units != 14 || l.Chunks != 4 {
		t.Errorf("workers/units/chunks = %d/%d/%d, want 2/14/4", l.Workers, l.Units, l.Chunks)
	}
	if l.WorkNs != 140_000 || l.CriticalNs != 100_000 || l.SpanNs != 100_000 || l.BarrierWaitNs != 20_000 {
		t.Errorf("work/critical/span/barrier = %d/%d/%d/%d, want 140/100/100/20 µs",
			l.WorkNs, l.CriticalNs, l.SpanNs, l.BarrierWaitNs)
	}
	if math.Abs(l.AchievableSpeedup-1.4) > 1e-9 {
		t.Errorf("achievable speedup = %v, want 1.4", l.AchievableSpeedup)
	}
	a := l.Attribution
	want := Attribution{WallNs: 100_000, ParallelNs: 70_000, SerialNs: 0, BarrierNs: 10_000,
		ImbalanceNs: 20_000 - model.RegionNs, SyncNs: model.RegionNs}
	if a.WallNs != want.WallNs || a.ParallelNs != want.ParallelNs || a.SerialNs != want.SerialNs ||
		a.BarrierNs != want.BarrierNs || a.ImbalanceNs != want.ImbalanceNs || a.SyncNs != want.SyncNs {
		t.Errorf("attribution = %+v, want %+v", a, want)
	}
	if a.ResidualNs != 0 {
		t.Errorf("residual = %d, want 0", a.ResidualNs)
	}
}

// TestBudgetVerdict: a loop whose measured work per sync event clears
// the Table 1 minimum passes; a tiny loop fails.
func TestBudgetVerdict(t *testing.T) {
	// 15 units × model.RegionNs of work over 1 sync event; Table 1 at
	// break-even for 15 procs is MinWorkPerLoop(15, RegionNs, 1) =
	// 15 × RegionNs. Exactly at threshold -> pass.
	events := StairStepTrace("big", 15, []int{15}, model.RegionNs, 0, base)
	r := Analyze(events)
	if !r.Loops[0].Budget.Pass {
		t.Errorf("big loop: budget fail (ratio %v), want pass", r.Loops[0].Budget.Ratio)
	}

	// Same shape but RegionNs/100 units: 100x short.
	events = StairStepTrace("small", 15, []int{15}, model.RegionNs/100, 0, base)
	r = Analyze(events)
	b := r.Loops[0].Budget
	if b.Pass {
		t.Errorf("small loop: budget pass (ratio %v), want fail", b.Ratio)
	}
	if math.Abs(b.Ratio-0.01) > 1e-9 {
		t.Errorf("small loop ratio = %v, want 0.01", b.Ratio)
	}
}

// TestTruncatedTraceFlagged: a drop marker (as synthesized by
// Tracer.EventsSince after ring wraparound) flags the report.
func TestTruncatedTraceFlagged(t *testing.T) {
	events := StairStepTrace("zone", 15, []int{5}, time.Millisecond, 0, base)
	marked := append([]obs.Event{obs.DropMarker(1, 42, base)}, events...)
	r := Analyze(marked)
	if !r.Truncated || r.DroppedEvents != 42 {
		t.Errorf("truncated=%v dropped=%d, want true/42", r.Truncated, r.DroppedEvents)
	}

	if r = Analyze(events); r.Truncated {
		t.Error("clean trace flagged truncated")
	}
}

// TestTruncatedTraceFromRealTracer: overflow a real ring buffer and
// run the cursor read through the analyzer.
func TestTruncatedTraceFromRealTracer(t *testing.T) {
	tr := obs.NewTracer(8, nil)
	tr.Enable()
	for i := 0; i < 20; i++ {
		tr.Emit(obs.Event{Kind: obs.KindBarrier, Name: "x"})
	}
	events, dropped := tr.EventsSince(1)
	if dropped == 0 {
		t.Fatal("expected drops after overflowing an 8-slot ring")
	}
	r := Analyze(events)
	if !r.Truncated || r.DroppedEvents != int64(dropped) {
		t.Errorf("truncated=%v dropped=%d, want true/%d", r.Truncated, r.DroppedEvents, dropped)
	}
}

// TestIncompleteRegionCounted: a region whose end event was lost is
// counted, not silently attributed.
func TestIncompleteRegionCounted(t *testing.T) {
	events := seqTrace([]obs.Event{
		{At: base, Kind: obs.KindRegionBegin, Name: "cut", Worker: -1, A: 2},
		{At: base.Add(10), Kind: obs.KindChunk, Name: "cut", Worker: 0, Dur: 10, A: 0, B: 5},
	})
	r := Analyze(events)
	if len(r.Loops) != 1 || r.Loops[0].IncompleteRegions != 1 || r.Loops[0].Regions != 0 {
		t.Errorf("got %+v, want one loop with 1 incomplete region", r.Loops)
	}
}

// TestGrantAudit: plateau grants count toward efficiency, off-plateau
// grants against it, and resizes (carrying M in C) are audited too.
func TestGrantAudit(t *testing.T) {
	events := seqTrace([]obs.Event{
		// M=15: plateaus at 1,2,3,4,5,8,15. P=5 efficient, P=6 wasteful.
		{At: base, Kind: obs.KindGrant, Name: "a", Worker: -1, A: 5, B: 15},
		{At: base.Add(1), Kind: obs.KindGrant, Name: "a", Worker: -1, A: 6, B: 15},
		// Resize to 8 with requested M=15 in C.
		{At: base.Add(2), Kind: obs.KindResize, Name: "a", Worker: -1, A: 6, B: 8, C: 15},
	})
	r := Analyze(events)
	if len(r.Grants) != 3 {
		t.Fatalf("grant buckets = %d, want 3: %+v", len(r.Grants), r.Grants)
	}
	byProcs := map[int]GrantBucket{}
	for _, g := range r.Grants {
		byProcs[g.Procs] = g
	}
	if !byProcs[5].OnPlateau || byProcs[6].OnPlateau || !byProcs[8].OnPlateau {
		t.Errorf("plateau flags wrong: %+v", r.Grants)
	}
	if byProcs[8].PredictedSpeedup != 7.5 {
		t.Errorf("P=8 predicted = %v, want 7.5", byProcs[8].PredictedSpeedup)
	}
	if math.Abs(r.PlateauEfficiency-2.0/3.0) > 1e-9 {
		t.Errorf("plateau efficiency = %v, want 2/3", r.PlateauEfficiency)
	}
}

// TestRankedProfileEmbedded: the report embeds the prof-style ranked
// entries with region/chunk split.
func TestRankedProfileEmbedded(t *testing.T) {
	events := StairStepTrace("zone", 15, []int{5}, time.Millisecond, 0, base)
	r := Analyze(events)
	if len(r.Ranked) == 0 {
		t.Fatal("no ranked entries")
	}
	names := map[string]bool{}
	for _, e := range r.Ranked {
		names[e.Name] = true
	}
	if !names["zone"] || !names["zone/chunk"] {
		t.Errorf("ranked names = %v, want zone and zone/chunk", names)
	}
}

// TestPhaseSpansRankedNotAttributed: phase spans around a loop's
// regions leave its loops, totals and occupancy as they were — they
// contain the regions already charged — and only add ranked rows.
func TestPhaseSpansRankedNotAttributed(t *testing.T) {
	plain := StairStepTrace("zone", 15, []int{5, 8}, time.Millisecond, time.Microsecond, base)
	var phased []obs.Event
	var begin time.Time
	for _, e := range plain {
		phased = append(phased, e)
		switch e.Kind {
		case obs.KindRegionBegin:
			begin = e.At
		case obs.KindRegionEnd:
			phased = append(phased, obs.Event{At: e.At, Kind: obs.KindPhase, Name: "zone/z1/rhs", Worker: -1, Dur: e.At.Sub(begin), A: e.A})
		}
	}
	want, got := Analyze(plain), Analyze(phased)
	if !reflect.DeepEqual(got.Loops, want.Loops) || got.Totals != want.Totals ||
		!reflect.DeepEqual(got.Occupancy, want.Occupancy) || got.WallNs != want.WallNs {
		t.Errorf("phase spans changed the attribution:\n got %+v %+v\nwant %+v %+v", got.Loops, got.Totals, want.Loops, want.Totals)
	}
	var phase Entry
	for _, e := range got.Ranked {
		if e.Name == "zone/z1/rhs" {
			phase = e
		}
	}
	if phase.Calls != 2 || len(got.Ranked) != len(want.Ranked)+1 {
		t.Errorf("ranked %+v, want the rows of %+v plus zone/z1/rhs over 2 calls", got.Ranked, want.Ranked)
	}
}

// TestReportJSONRoundTrip: reports survive the JSON encoding served
// by f3dd /analyze and printed by tracetool analyze -json.
func TestReportJSONRoundTrip(t *testing.T) {
	events := StairStepTrace("zone", 15, []int{5, 8}, time.Millisecond, time.Microsecond, base)
	r := Analyze(events)
	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != Schema || len(back.Loops) != len(r.Loops) || len(back.Occupancy) != len(r.Occupancy) {
		t.Errorf("round trip mangled report: %+v", back)
	}
	if back.Loops[0].Attribution != r.Loops[0].Attribution {
		t.Errorf("attribution round trip: %+v != %+v", back.Loops[0].Attribution, r.Loops[0].Attribution)
	}
}

// TestAnalyzeLiveParloopTrace: end-to-end over a real team run —
// attribution must still sum, and units must match the loop bound.
func TestAnalyzeLiveParloopTrace(t *testing.T) {
	tr := obs.NewTracer(4096, nil)
	tr.Enable()
	team := newTracedTeam(t, tr, "live", 4)
	defer team.Close()

	for step := 0; step < 3; step++ {
		team.For(64, func(i int) { busyWork(200) })
	}
	r := Analyze(tr.Events())
	if len(r.Loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(r.Loops))
	}
	l := r.Loops[0]
	if l.Regions != 3 || l.Units != 64 || l.Workers != 4 || l.SyncEvents != 3 {
		t.Errorf("regions/units/workers/syncs = %d/%d/%d/%d, want 3/64/4/3", l.Regions, l.Units, l.Workers, l.SyncEvents)
	}
	a := l.Attribution
	sum := a.ParallelNs + a.SerialNs + a.BarrierNs + a.ImbalanceNs + a.SyncNs
	if err := math.Abs(float64(a.WallNs-sum)) / float64(a.WallNs); err > 0.005 {
		t.Errorf("live attribution sum err %.3f%% > 0.5%%", 100*err)
	}
	if l.AchievedSpeedup <= 0 || l.AchievableSpeedup <= 0 {
		t.Errorf("speedups %v/%v, want > 0", l.AchievedSpeedup, l.AchievableSpeedup)
	}
}
