package main

import (
	"fmt"
	"time"

	"repro/internal/autopar/pipeline"
	"repro/internal/check"
	"repro/internal/f3d"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/parloop"
)

// runAutoparSeries emits the evidence-driven planner's benchmark
// series. The gates are deterministic properties of the pipeline —
// plan validity on a real traced solver run, exact decision counts on
// a synthetic workload exercising every action, the fixed point under
// re-planning, the Tracker-evidence doacross demotion, and bitwise
// conformance of a plan-shaped solver against the serial reference —
// so they hold on any host. Planning latency and the shaped step time
// ride along ungated.
func runAutoparSeries(short bool, minDur time.Duration, logf func(format string, args ...any),
	gated func(name string, v float64, unit string, better Direction),
	ungated func(name string, v float64, unit string, better Direction)) {

	logf("auto-parallelization pipeline:")

	// --- A real phase-traced solver run, planned and validated.
	tr := obs.NewTracer(1<<16, nil)
	tr.Enable()
	team := parloop.NewTeam(benchWorkers)
	defer team.Close()
	team.SetTracer(tr, "autopar")
	cfg := f3d.DefaultConfig(grid.Single(12, 10, 9))
	s, err := f3d.NewCacheSolver(cfg, f3d.CacheOptions{Team: team, PhaseTrace: "autopar"})
	if err != nil {
		panic(fmt.Sprintf("benchdump: autopar solver: %v", err))
	}
	f3d.InitPulse(s, 0.01)
	for i := 0; i < 3; i++ {
		s.Step()
	}
	s.Close()
	team.SetTracer(nil, "")

	pcfg := pipeline.Config{}
	ev := pipeline.FromTrace(tr.Events(), analyze.Config{},
		pipeline.F3DStructure("autopar"), "benchdump")
	planValid := 1.0
	p := pipeline.PlanFromEvidence(ev, pcfg)
	if err := pipeline.Validate(p, ev, pcfg); err != nil {
		logf("  live plan INVALID: %v", err)
		planValid = 0
	}
	gated("autopar_plan_valid", planValid, "bool", Exact)
	// The default structure phase-traces rhs and both sweeps; bc stays
	// serial and emits nothing, so the planner must see exactly three
	// loops.
	gated("autopar_plan_loops", float64(len(p.Loops)), "loops", Exact)
	ungated("autopar_plan_ns", measure(minDur, func() {
		pipeline.PlanFromEvidence(ev, pcfg)
	}), "ns/plan", Lower)

	// --- Exact decision counts on the synthetic all-actions workload:
	// timing never enters, so each count gates hard.
	mk := func(name string, share, wps float64, mut func(*pipeline.LoopEvidence)) pipeline.LoopEvidence {
		l := pipeline.LoopEvidence{
			Name: name, RankShare: share, WorkNs: int64(share * 1e9),
			Workers: benchWorkers, SyncEvents: 10,
			WorkPerSyncCycles: wps, MinWorkCycles: 50_000, BudgetPass: wps >= 50_000,
			Static: pipeline.StaticParallel,
		}
		if mut != nil {
			mut(&l)
		}
		return l
	}
	sev := pipeline.Evidence{Source: "benchdump-synthetic", Procs: benchWorkers, Loops: []pipeline.LoopEvidence{
		mk("hot", 0.3, 200_000, nil),
		mk("racy", 0.2, 200_000, func(l *pipeline.LoopEvidence) {
			l.Static = pipeline.StaticUnknown
			l.Tracked = true
			l.Conflicts = []pipeline.Conflict{{Array: "q", Index: 3, Kind: "write-write"}}
		}),
		mk("mixed", 0.25, 200_000, func(l *pipeline.LoopEvidence) {
			l.Parts = []pipeline.PartEvidence{
				{Name: "par", WorkFrac: 0.7, Static: pipeline.StaticParallel},
				{Name: "ser", WorkFrac: 0.3, Static: pipeline.StaticSerial},
			}
		}),
		mk("groupbig", 0.15, 120_000, func(l *pipeline.LoopEvidence) { l.Group = "fuse" }),
		mk("groupsmall", 0.08, 20_000, func(l *pipeline.LoopEvidence) { l.Group = "fuse" }),
		mk("cold", 0.002, 100_000, nil),
	}}
	sp := pipeline.PlanFromEvidence(sev, pcfg)
	gated("autopar_plan_parallelize", float64(sp.Count(pipeline.Parallelize)), "loops", Exact)
	gated("autopar_plan_serial", float64(sp.Count(pipeline.Serial)), "loops", Exact)
	gated("autopar_plan_merge", float64(sp.Count(pipeline.Merge)), "loops", Exact)
	gated("autopar_plan_fission", float64(sp.Count(pipeline.Fission)), "loops", Exact)

	// --- Fixed point: re-planning from applied evidence proposes no
	// changes, on both the live and the synthetic evidence.
	fixed := 1.0
	for _, e := range []pipeline.Evidence{ev, sev} {
		pl := pipeline.PlanFromEvidence(e, pcfg)
		next := pipeline.PlanFromEvidence(pipeline.Applied(e, pl, pcfg), pcfg)
		if ch := pipeline.Changes(pl, next); len(ch) != 0 {
			logf("  plan not a fixed point: %v", ch)
			fixed = 0
		}
	}
	gated("autopar_plan_fixed_point", fixed, "bool", Exact)

	// --- The §2 doacross misuse, demoted by real Tracker evidence.
	k := check.SeededDependence()
	tk := check.NewTracker(team, 0)
	k.Tracked(tk, team, k.N)
	races := tk.Races()
	dev := pipeline.Evidence{
		Source: "benchdump-doacross",
		Procs:  benchWorkers,
		Loops: []pipeline.LoopEvidence{{
			Name: "doacross", RankShare: 0.95, WorkNs: 1_000_000,
			Workers: benchWorkers, SyncEvents: 4,
			WorkPerSyncCycles: 250_000, MinWorkCycles: 50_000, BudgetPass: true,
			Static: pipeline.StaticUnknown,
		}},
	}
	dev.AddConflicts("doacross", "", check.PlanConflicts(races))
	dp := pipeline.PlanFromEvidence(dev, pcfg)
	demoted := 0.0
	if d, ok := dp.Decision("doacross"); ok && d.Action == pipeline.Serial && len(races) > 0 {
		demoted = 1
	}
	gated("autopar_doacross_serial", demoted, "bool", Exact)

	// --- Conformance: a plan-shaped solver (fissioned RHS, the
	// furthest transform from the default structure) reproduces the
	// serial reference's residual history bitwise.
	steps := 5
	ref, err := f3d.NewCacheSolver(cfg, f3d.CacheOptions{})
	if err != nil {
		panic(fmt.Sprintf("benchdump: autopar reference: %v", err))
	}
	defer ref.Close()
	f3d.InitPulse(ref, 0.01)
	shape := f3d.StepShape{RHSJK: true, RHSL: true, SweepJK: true, SweepL: true, FissionRHS: true}
	shaped, err := f3d.NewCacheSolver(cfg, f3d.CacheOptions{Team: team, Shape: f3d.NewShapeCfg(shape)})
	if err != nil {
		panic(fmt.Sprintf("benchdump: autopar shaped solver: %v", err))
	}
	defer shaped.Close()
	f3d.InitPulse(shaped, 0.01)
	bitwise := 1.0
	for i := 0; i < steps; i++ {
		want := ref.Step().Residual
		got := shaped.Step().Residual
		if got != want {
			logf("  shaped step %d residual %.17g != serial %.17g", i, got, want)
			bitwise = 0
		}
	}
	gated("autopar_conform_bitwise", bitwise, "bool", Exact)
	ungated("autopar_shaped_step_ns", measure(minDur, func() { shaped.Step() }), "ns/step", Lower)
}
