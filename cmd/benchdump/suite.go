package main

import (
	"fmt"
	"math"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/f3d"
	"repro/internal/grid"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/parloop"
	"repro/internal/sim"
)

// benchWorkers pins the team size so the gated sync-event counts do
// not depend on the host's core count.
const benchWorkers = 4

// measure times f in a closed loop for at least minDur (after one
// warm-up call) and returns nanoseconds per call.
func measure(minDur time.Duration, f func()) float64 {
	f()
	n := 0
	start := time.Now()
	for time.Since(start) < minDur {
		f()
		n++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// syncsPerOp runs f once against a zeroed sync-event counter and
// returns how many synchronization events it cost.
func syncsPerOp(team *parloop.Team, f func()) float64 {
	team.ResetSyncEvents()
	f()
	return float64(team.SyncEvents())
}

// runSuite produces the full series list. In short mode the timed
// loops run ~100ms each and the solver case shrinks; the deterministic
// series are identical either way except f3d_step_syncs, which tracks
// the case (which is why Short is recorded in the report and compared
// against the baseline's). A non-empty traceOut additionally dumps the
// traced Example 3 run as JSONL for tracetool / speedscope in CI.
func runSuite(short bool, traceOut string, logf func(format string, args ...any)) []Series {
	minDur := time.Second
	caseScale := 0.22
	if short {
		minDur = 100 * time.Millisecond
		caseScale = 0.10
	}

	var out []Series
	gated := func(name string, v float64, unit string, better Direction) {
		out = append(out, Series{Name: name, Value: v, Unit: unit, Better: better, Gate: true})
		logf("  %-36s %14.6g %-12s [gated %s]", name, v, unit, better)
	}
	ungated := func(name string, v float64, unit string, better Direction) {
		out = append(out, Series{Name: name, Value: v, Unit: unit, Better: better, Gate: false})
		logf("  %-36s %14.6g %-12s [ungated]", name, v, unit)
	}
	timed := func(name string, v float64, unit string) {
		ungated(name, v, unit, Lower)
	}

	// --- Analytic model (Tables 1, 3; Figure 1): exact reproductions.
	logf("model:")
	t1 := model.Table1()
	gated("table1_min_work_p128_sync1e6", t1[3][2], "cycles", Exact)
	t3 := model.Table3()
	gated("table3_speedup_p15", t3[len(t3)-1].Speedup, "x", Higher)
	fig1 := model.Figure1Series()
	gated("figure1_n45_p44_speedup", fig1[4][43], "x", Higher)

	// --- Calibrated simulator (Table 4): the paper's headline rows.
	logf("simulator:")
	oneM, fiftyNineM := sim.Table4()
	gated("table4_sgi_1m_1p_steps_hr", oneM[0].Sgi.StepsPerHour, "steps/hr", Higher)
	last := fiftyNineM[len(fiftyNineM)-1]
	gated("table4_sgi_59m_124p_steps_hr", last.Sgi.StepsPerHour, "steps/hr", Higher)
	gated("table4_sgi_59m_124p_speedup", last.Sgi.Speedup, "x", Higher)

	// --- Examples 1-3: synchronization structure of the paper's three
	// loop transformations. The counts are the point; the timings ride
	// along ungated.
	team := parloop.NewTeam(benchWorkers)
	defer team.Close()

	logf("example 1 (inner vs outer parallel loop):")
	const e1Outer, e1Inner = 64, 4096
	data := make([]float64, e1Outer*e1Inner)
	e1Body := func(o, i int) {
		v := data[o*e1Inner+i]
		data[o*e1Inner+i] = v*v*0.5 + v + 1
	}
	e1In := func() {
		for o := 0; o < e1Outer; o++ {
			team.For(e1Inner, func(i int) { e1Body(o, i) })
		}
	}
	e1Out := func() {
		team.For(e1Outer, func(o int) {
			for i := 0; i < e1Inner; i++ {
				e1Body(o, i)
			}
		})
	}
	gated("example1_inner_syncs_op", syncsPerOp(team, e1In), "syncs/op", Lower)
	gated("example1_outer_syncs_op", syncsPerOp(team, e1Out), "syncs/op", Lower)
	timed("example1_outer_ns_op", measure(minDur, e1Out), "ns/op")

	logf("example 2 (separate vs merged regions):")
	const e2N = 1 << 16
	a := make([]float64, e2N)
	c := make([]float64, e2N)
	e2Sep := func() {
		team.For(e2N, func(j int) { a[j] = float64(j) * 0.5 })
		team.For(e2N, func(j int) { c[j] = a[j] + 1 })
	}
	e2Merged := func() {
		team.Region(func(ctx *parloop.WorkerCtx) {
			ctx.For(e2N, func(j int) { a[j] = float64(j) * 0.5 })
			ctx.For(e2N, func(j int) { c[j] = a[j] + 1 })
		})
	}
	gated("example2_separate_syncs_op", syncsPerOp(team, e2Sep), "syncs/op", Lower)
	gated("example2_merged_syncs_op", syncsPerOp(team, e2Merged), "syncs/op", Lower)

	logf("example 3 (child regions vs hoisted parent):")
	const e3Outer, e3Inner = 256, 512
	var sink atomic.Int64
	e3Sub := func(j int) int64 {
		s := int64(0)
		for i := 0; i < e3Inner; i++ {
			s += int64(i ^ j)
		}
		return s
	}
	e3Child := func() {
		for j := 0; j < e3Outer; j++ {
			team.ForChunked(e3Inner, func(lo, hi int) {
				s := int64(0)
				for i := lo; i < hi; i++ {
					s += int64(i ^ j)
				}
				sink.Add(s)
			})
		}
	}
	e3Hoisted := func() {
		team.For(e3Outer, func(j int) { sink.Add(e3Sub(j)) })
	}
	gated("example3_child_syncs_op", syncsPerOp(team, e3Child), "syncs/op", Lower)
	gated("example3_hoisted_syncs_op", syncsPerOp(team, e3Hoisted), "syncs/op", Lower)
	e3Base := measure(minDur, e3Hoisted)
	timed("example3_hoisted_ns_op", e3Base, "ns/op")

	// --- Tracing overhead: the acceptance number. Attach a disabled
	// tracer to the team and rerun the Example 3 hoisted loop; the
	// instrumentation must cost one atomic load per region/chunk, so
	// the drift stays in the noise (<5%).
	tr := obs.NewTracer(1024, nil)
	team.SetTracer(tr, "benchdump")
	e3Traced := measure(minDur, e3Hoisted)
	team.SetTracer(nil, "")
	overhead := 100 * (e3Traced - e3Base) / e3Base
	out = append(out, Series{Name: "trace_overhead_pct", Value: overhead, Unit: "%", Better: Lower, Gate: false})
	logf("tracing (disabled) overhead on example3_hoisted: %.2f%% (%.6g -> %.6g ns/op) [ungated]",
		overhead, e3Base, e3Traced)

	// --- Trace analysis: deterministic facts the analyzer derives from
	// (a) the idealized Table 3 sweep and (b) a real traced run of the
	// Example 3 hoisted loop. These gate the diagnosis pipeline itself:
	// if event emission, critical-path reconstruction or plateau
	// detection drifts, CI fails here.
	logf("trace analysis (Table 3 sweep):")
	sizes := make([]int, 15)
	for i := range sizes {
		sizes[i] = i + 1
	}
	simEvents := analyze.StairStepTrace("table3", 15, sizes,
		time.Millisecond, 100*time.Microsecond, time.Date(2001, 9, 1, 0, 0, 0, 0, time.UTC))
	simRep := analyze.Analyze(simEvents, analyze.Config{})
	gated("analyze_table3_plateau_count", float64(len(simRep.Plateaus)), "plateaus", Exact)
	var p5, p8 float64
	for _, c := range simRep.Occupancy {
		switch c.Workers {
		case 5:
			p5 = c.MeasuredSpeedup
		case 8:
			p8 = c.MeasuredSpeedup
		}
	}
	gated("analyze_table3_p5_speedup", p5, "x", Exact)
	gated("analyze_table3_p8_speedup", p8, "x", Exact)
	attributionOK := 1.0
	for _, l := range simRep.Loops {
		if l.Attribution.WallNs > 0 &&
			math.Abs(float64(l.Attribution.ResidualNs))/float64(l.Attribution.WallNs) > 0.005 {
			attributionOK = 0
		}
	}
	gated("analyze_attribution_ok", attributionOK, "bool", Exact)

	logf("trace analysis (Example 3 traced run):")
	team.SetTracer(tr, "example3")
	tr.Enable()
	e3Hoisted()
	tr.Disable()
	team.SetTracer(nil, "")
	liveEvents := tr.Events()
	liveRep := analyze.Analyze(liveEvents, analyze.Config{})
	var e3Units, e3Syncs float64
	for _, l := range liveRep.Loops {
		if l.Name == "example3" {
			e3Units = float64(l.Units)
			e3Syncs = float64(l.SyncEvents)
		}
	}
	gated("example3_trace_units", e3Units, "units", Exact)
	gated("example3_trace_syncs", e3Syncs, "syncs", Exact)
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			panic(fmt.Sprintf("benchdump: writing trace: %v", err))
		}
		if err := tr.WriteJSONL(f); err == nil {
			err = f.Close()
		}
		if err != nil {
			panic(fmt.Sprintf("benchdump: writing trace: %v", err))
		}
		logf("wrote %s (%d events)", traceOut, len(liveEvents))
	}
	tr.Reset()

	// --- Real solver: sync events per step and step latency.
	logf("f3d cache solver (scale %.2f):", caseScale)
	cfg := f3d.DefaultConfig(grid.Scaled(grid.Paper1M(), caseScale))
	s, err := f3d.NewCacheSolver(cfg, f3d.CacheOptions{Team: team})
	if err != nil {
		panic(fmt.Sprintf("benchdump: building solver: %v", err))
	}
	defer s.Close()
	f3d.InitPulse(s, 0.02)
	step := func() { s.Step() }
	gated("f3d_step_syncs", syncsPerOp(team, step), "syncs/step", Lower)
	timed("f3d_step_ns", measure(minDur, step), "ns/step")

	// --- The sync cost itself, and the Table 1 criterion it implies on
	// a hypothetical 2-GHz processor.
	stats := parloop.MeasureSyncCost(team, 100)
	timed("sync_cost_ns", float64(stats.PerSync.Nanoseconds()), "ns/sync")

	// --- Adaptive scheduling: deterministic controller-vs-static gates
	// plus a real reconfiguring loop under the scheduler.
	runAdaptiveSeries(minDur, logf, gated, ungated)

	// --- Auto-parallelization pipeline: plan validity, decision
	// counts, fixed point, doacross demotion, shaped-solver
	// conformance.
	runAutoparSeries(short, minDur, logf, gated, ungated)

	// --- Distributed sharded solve: conformance gates plus the
	// cluster-level speedup series.
	runClusterSeries(short, minDur, logf, gated, ungated)

	// --- Tuned inner-loop kernel layer: per-kernel timings, MFLOPS,
	// allocation counts and tuned-vs-scalar speedup ratios.
	runKernelSeries(short, minDur, logf, gated, ungated)

	return out
}
