// Package repro's root benchmark harness regenerates every table and
// figure of ARL-TR-2556 and benchmarks the design choices DESIGN.md
// calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Analytical tables (1, 2, 3, Figure 1) are exact reproductions; the
// measured-performance artifacts (Table 4, Figures 2–3) come from the
// calibrated SMP simulator (this host has one CPU — see DESIGN.md); the
// code-shape claims (serial tuning factor, Examples 1–4) are measured
// on the real solver and runtime. Key reproduced values are attached as
// benchmark metrics; the full row/series dumps come from cmd/tables and
// cmd/perfsim.
package repro

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/autopar"
	"repro/internal/cachesim"
	"repro/internal/f3d"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/parloop"
	"repro/internal/sim"
	"repro/internal/vecperf"
)

// ---------------------------------------------------------------------------
// Table 1: minimum work per parallelized loop for efficient execution.

func BenchmarkTable1(b *testing.B) {
	var t [][]float64
	for i := 0; i < b.N; i++ {
		t = model.Table1()
	}
	b.ReportMetric(t[0][0], "cycles_p2_sync1e4")
	b.ReportMetric(t[3][2], "cycles_p128_sync1e6")
}

// ---------------------------------------------------------------------------
// Table 2: available work per synchronization event (1M-point zone).

func BenchmarkTable2(b *testing.B) {
	var rows []model.Table2Row
	for i := 0; i < b.N; i++ {
		rows = model.Table2()
	}
	// 3-D outer loop at 10 cycles/point: 10,000,000 cycles.
	b.ReportMetric(rows[6].Work[0], "cycles_3d_outer_10cpp")
	// 3-D boundary inner loop at 10 cycles/point: 1,000 cycles.
	b.ReportMetric(rows[7].Work[0], "cycles_3d_bc_inner_10cpp")
}

// ---------------------------------------------------------------------------
// Table 3: predicted stair-step speedup, N = 15.

func BenchmarkTable3(b *testing.B) {
	var rows []model.Table3Row
	for i := 0; i < b.N; i++ {
		rows = model.Table3()
	}
	b.ReportMetric(rows[4].Speedup, "speedup_5to7procs")
	b.ReportMetric(rows[len(rows)-1].Speedup, "speedup_15procs")
}

// ---------------------------------------------------------------------------
// Figure 1: predicted speedup curves, N ∈ {5,15,25,35,45}, P = 1..50.

func BenchmarkFigure1(b *testing.B) {
	var series [][]float64
	for i := 0; i < b.N; i++ {
		series = model.Figure1Series()
	}
	// The N=45 curve's long plateau at 22.5 (P = 23..44).
	b.ReportMetric(series[4][22], "n45_p23_speedup")
	b.ReportMetric(series[4][43], "n45_p44_speedup")
}

// ---------------------------------------------------------------------------
// Table 4: measured F3D performance on the two evaluation platforms
// (simulated; calibrated to the paper's 1-processor rows).

func BenchmarkTable4(b *testing.B) {
	var oneM, fiftyNineM []sim.Table4Row
	for i := 0; i < b.N; i++ {
		oneM, fiftyNineM = sim.Table4()
	}
	b.ReportMetric(oneM[0].Sgi.StepsPerHour, "sgi_1M_1p_steps_hr")        // paper: 181
	b.ReportMetric(oneM[0].Sun.StepsPerHour, "sun_1M_1p_steps_hr")        // paper: 138
	b.ReportMetric(fiftyNineM[0].Sgi.StepsPerHour, "sgi_59M_1p_steps_hr") // paper: 2.3
	last := fiftyNineM[len(fiftyNineM)-1]
	b.ReportMetric(last.Sgi.StepsPerHour, "sgi_59M_124p_steps_hr") // paper: 153
	b.ReportMetric(last.Sgi.Speedup, "sgi_59M_124p_speedup")       // paper: ≈66
}

// ---------------------------------------------------------------------------
// Figure 2: 1M-point case sweeps on Origin 2000 / HPC 10000 / V2500.

func BenchmarkFigure2(b *testing.B) {
	var series []sim.FigureSeries
	for i := 0; i < b.N; i++ {
		series = sim.Figure2()
	}
	sgi := series[0].Results
	plat := sim.FindPlateaus(sgi, 0.01, 8)
	var hi sim.Plateau
	for _, p := range plat {
		if p.Lo >= 40 && p.Lo <= 70 {
			hi = p
		}
	}
	// Paper: "nearly flat performance between 48 and 64 processors".
	b.ReportMetric(float64(hi.Lo), "plateau_lo_procs")
	b.ReportMetric(float64(hi.Hi), "plateau_hi_procs")
}

// ---------------------------------------------------------------------------
// Figure 3: 59M-point case sweeps, including the 195-MHz Origin.

func BenchmarkFigure3(b *testing.B) {
	var series []sim.FigureSeries
	for i := 0; i < b.N; i++ {
		series = sim.Figure3()
	}
	sgi := series[0].Results
	// Paper: flat between 88 and 104 processors.
	b.ReportMetric(sgi[87].StepsPerHour, "sgi_88p_steps_hr")
	b.ReportMetric(sgi[103].StepsPerHour, "sgi_104p_steps_hr")
	b.ReportMetric(sgi[103].StepsPerHour/sgi[87].StepsPerHour, "flatness_88_104")
}

// ---------------------------------------------------------------------------
// §5 serial-tuning claim: the cache-tuned variant vs the vector-style
// original, single processor. (The paper reports >10x on the Power
// Challenge, where plane-sized scratch thrashed a small cache; on a
// modern host with large caches the gap is smaller but must favor the
// cache variant.)

func benchCase() grid.Case { return grid.Scaled(grid.Paper1M(), 0.22) }

// benchTeam returns a team of at least four workers so the
// synchronization-structure ablations (Examples 1-3, BC, merged
// regions) expose their region counts even on hosts with few cores.
func benchTeam() *parloop.Team {
	w := runtime.GOMAXPROCS(0)
	if w < 4 {
		w = 4
	}
	return parloop.NewTeam(w)
}

func BenchmarkSerialTuning(b *testing.B) {
	cfg := f3d.DefaultConfig(benchCase())
	b.Run("vector", func(b *testing.B) {
		s, err := f3d.NewVectorSolver(cfg)
		if err != nil {
			b.Fatal(err)
		}
		f3d.InitPulse(s, 0.02)
		b.ResetTimer()
		var flops float64
		for i := 0; i < b.N; i++ {
			flops += s.Step().Flops
		}
		b.ReportMetric(flops/b.Elapsed().Seconds()/1e6, "MFLOPS")
	})
	b.Run("cache", func(b *testing.B) {
		s, err := f3d.NewCacheSolver(cfg, f3d.CacheOptions{})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		f3d.InitPulse(s, 0.02)
		b.ResetTimer()
		var flops float64
		for i := 0; i < b.N; i++ {
			flops += s.Step().Flops
		}
		b.ReportMetric(flops/b.Elapsed().Seconds()/1e6, "MFLOPS")
	})
}

// ---------------------------------------------------------------------------
// §5 size-scan claim: single-processor MFLOPS roughly flat across
// problem sizes (the opposite of vector machines' vector-length
// sensitivity).

func BenchmarkSizeScan(b *testing.B) {
	for _, scale := range []float64{0.10, 0.16, 0.25} {
		c := grid.Scaled(grid.Paper1M(), scale)
		b.Run(fmt.Sprintf("points=%d", c.Points()), func(b *testing.B) {
			s, err := f3d.NewCacheSolver(f3d.DefaultConfig(c), f3d.CacheOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			f3d.InitPulse(s, 0.02)
			b.ResetTimer()
			var flops float64
			for i := 0; i < b.N; i++ {
				flops += s.Step().Flops
			}
			b.ReportMetric(flops/b.Elapsed().Seconds()/1e6, "MFLOPS")
		})
	}
}

// ---------------------------------------------------------------------------
// Real parallel solver scaling (limited by this host's cores; the
// interesting fleet-scale curves are Figures 2-3 above).

func BenchmarkParallelSolver(b *testing.B) {
	cfg := f3d.DefaultConfig(benchCase())
	maxW := runtime.GOMAXPROCS(0)
	for w := 1; w <= maxW; w *= 2 {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var team *parloop.Team
			if w > 1 {
				team = parloop.NewTeam(w)
				defer team.Close()
			}
			s, err := f3d.NewCacheSolver(cfg, f3d.CacheOptions{Team: team})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			f3d.InitPulse(s, 0.02)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Examples 1-3: the paper's three loop transformations, each as the nest
// before and after it. Same arithmetic on each side; only where the
// parallel region opens changes, and with it the synchronization count.

// exampleNest is one side of one of Examples 1-3: syncs is the number of
// synchronization events one pass of run costs on a team of two or more
// workers (a one-worker team runs regions serially and counts none).
type exampleNest struct {
	example int
	name    string
	syncs   uint64
	run     func(*parloop.Team)
}

// exampleNests builds the six nests over fresh data, before then after
// for each example. BenchmarkExample1/2/3 time them and
// TestExampleSyncCounts pins their sync counts.
func exampleNests() []exampleNest {
	// Example 1: parallelize the inner loop (one region per outer
	// iteration) or the outer loop (one region in all).
	const e1Outer, e1Inner = 64, 4096
	data := make([]float64, e1Outer*e1Inner)
	e1Body := func(o, i int) {
		v := data[o*e1Inner+i]
		data[o*e1Inner+i] = v*v*0.5 + v + 1
	}

	// Example 2: two loops as two regions, or merged under one.
	const e2N = 1 << 16
	a := make([]float64, e2N)
	c := make([]float64, e2N)

	// Example 3: a region opened inside a callee once per outer
	// iteration, or one region hoisted into the parent. The paper: "this
	// optimization reduces the number of synchronization events by 1-3
	// orders of magnitude".
	const e3Outer, e3Inner = 256, 512
	var sink atomic.Int64
	e3Sub := func(j, lo, hi int) {
		s := int64(0)
		for i := lo; i < hi; i++ {
			s += int64(i ^ j)
		}
		sink.Add(s)
	}

	return []exampleNest{
		{1, "inner-loop", e1Outer, func(team *parloop.Team) {
			for o := 0; o < e1Outer; o++ {
				team.For(e1Inner, func(i int) { e1Body(o, i) })
			}
		}},
		{1, "outer-loop", 1, func(team *parloop.Team) {
			team.For(e1Outer, func(o int) {
				for i := 0; i < e1Inner; i++ {
					e1Body(o, i)
				}
			})
		}},
		{2, "separate-regions", 2, func(team *parloop.Team) {
			team.For(e2N, func(j int) { a[j] = float64(j) * 0.5 })
			team.For(e2N, func(j int) { c[j] = a[j] + 1 })
		}},
		{2, "merged-region", 1, func(team *parloop.Team) {
			team.Region(func(ctx *parloop.WorkerCtx) {
				ctx.For(e2N, func(j int) { a[j] = float64(j) * 0.5 })
				ctx.For(e2N, func(j int) { c[j] = a[j] + 1 })
			})
		}},
		{3, "child-regions", e3Outer, func(team *parloop.Team) {
			for j := 0; j < e3Outer; j++ {
				team.ForChunked(e3Inner, func(lo, hi int) { e3Sub(j, lo, hi) })
			}
		}},
		{3, "hoisted-parent", 1, func(team *parloop.Team) {
			team.For(e3Outer, func(j int) { e3Sub(j, 0, e3Inner) })
		}},
	}
}

// TestExampleSyncCounts pins the synchronization structure of Examples
// 1-3 exactly: 64 → 1, 2 → 1 and 256 → 1 sync events per pass.
func TestExampleSyncCounts(t *testing.T) {
	team := benchTeam()
	defer team.Close()
	for _, nest := range exampleNests() {
		team.ResetSyncEvents()
		nest.run(team)
		if got := team.SyncEvents(); got != nest.syncs {
			t.Errorf("Example %d %s: %d sync events per pass, want %d", nest.example, nest.name, got, nest.syncs)
		}
	}
}

// benchExample times both sides of one example and reports each side's
// sync events per pass.
func benchExample(b *testing.B, example int) {
	team := benchTeam()
	defer team.Close()
	for _, nest := range exampleNests() {
		if nest.example != example {
			continue
		}
		b.Run(nest.name, func(b *testing.B) {
			team.ResetSyncEvents()
			for n := 0; n < b.N; n++ {
				nest.run(team)
			}
			b.ReportMetric(float64(team.SyncEvents())/float64(b.N), "syncs/op")
		})
	}
}

func BenchmarkExample1(b *testing.B) { benchExample(b, 1) }
func BenchmarkExample2(b *testing.B) { benchExample(b, 2) }
func BenchmarkExample3(b *testing.B) { benchExample(b, 3) }

// ---------------------------------------------------------------------------
// Example 4: the three memory-access orderings through the cache/TLB/
// NUMA simulator.

func BenchmarkExample4(b *testing.B) {
	cfg := cachesim.DefaultTraceConfig(8)
	cfg.JMax, cfg.KMax, cfg.LMax = 48, 48, 48
	for _, ord := range []cachesim.Ordering{
		cachesim.OrderingIdeal, cachesim.OrderingAcceptable, cachesim.OrderingUnacceptable,
	} {
		name := []string{"ideal", "acceptable", "unacceptable"}[int(ord)]
		b.Run(name, func(b *testing.B) {
			var r cachesim.Report
			for i := 0; i < b.N; i++ {
				r = cachesim.Trace(cfg, ord)
			}
			b.ReportMetric(100*r.CacheMissRate, "cache_miss_%")
			b.ReportMetric(100*r.TLBMissRate, "tlb_miss_%")
			b.ReportMetric(r.AvgSharersPerPage, "sharers/page")
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation: parallelizing the boundary-condition loops vs leaving them
// serial (the paper's §3 trade-off).

func BenchmarkBCParallelization(b *testing.B) {
	cfg := f3d.DefaultConfig(benchCase())
	team := benchTeam()
	defer team.Close()
	for _, parBC := range []bool{false, true} {
		name := "bc-serial"
		shape := f3d.DefaultShape()
		if parBC {
			name = "bc-parallel"
			shape.BC = true
		}
		b.Run(name, func(b *testing.B) {
			s, err := f3d.NewCacheSolver(cfg, f3d.CacheOptions{Team: team, Shape: &shape})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			f3d.InitPulse(s, 0.02)
			team.ResetSyncEvents()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
			b.ReportMetric(float64(team.SyncEvents())/float64(b.N), "syncs/op")
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation: per-phase fork-join regions vs one merged region per zone
// step (Example 3 applied to the whole solver).

func BenchmarkMergedRegions(b *testing.B) {
	cfg := f3d.DefaultConfig(benchCase())
	team := benchTeam()
	defer team.Close()
	for _, merged := range []bool{false, true} {
		name := "per-phase"
		shape := f3d.DefaultShape()
		if merged {
			name = "merged"
			shape.Merged = true
		}
		b.Run(name, func(b *testing.B) {
			s, err := f3d.NewCacheSolver(cfg, f3d.CacheOptions{Team: team, Shape: &shape})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			f3d.InitPulse(s, 0.02)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}

// ---------------------------------------------------------------------------
// §8 reproduction: automatic parallelization vs profile-guided
// directives (Wolfe's "parallelizing compilers don't work"; Hisley's
// parallel slowdown). Predicted speedups of the three strategies on a
// model F3D-like program.

func BenchmarkAutoParStrategies(b *testing.B) {
	big := func(name string, work float64) *autopar.Nest {
		return &autopar.Nest{
			Name:  name,
			Loops: []autopar.Loop{{Var: "l", N: 350}, {Var: "k", N: 450}, {Var: "j", N: 175}},
			Accesses: []autopar.Access{
				autopar.WriteTo("q", autopar.Idx("j"), autopar.Idx("k"), autopar.Idx("l")),
				autopar.Read("rhs", autopar.Idx("j"), autopar.Idx("k"), autopar.Idx("l")),
			},
			WorkPerIter: work,
		}
	}
	nests := []*autopar.Nest{big("rhs", 50), big("sweep", 80)}
	for i := 0; i < 8; i++ {
		nests = append(nests, &autopar.Nest{
			Name:  "helper",
			Loops: []autopar.Loop{{Var: "k", N: 75}, {Var: "j", N: 89}},
			Accesses: []autopar.Access{
				autopar.WriteTo("bc", autopar.Idx("j"), autopar.Idx("k")),
			},
			WorkPerIter: 4,
			Calls:       2000,
		})
	}
	sgi := machine.Origin2000R12K()
	m := autopar.Machine{Procs: 16, SyncCost: sgi.SyncCostCycles(16) * 10, Budget: model.OverheadBudget}
	var auto, inner, guided float64
	for i := 0; i < b.N; i++ {
		auto = autopar.PredictSpeedup(nests, autopar.Outermost, m)
		inner = autopar.PredictSpeedup(nests, autopar.Innermost, m)
		guided = autopar.PredictSpeedup(nests, autopar.CostGuided, m)
	}
	b.ReportMetric(auto, "speedup_automatic")
	b.ReportMetric(inner, "speedup_innermost")
	b.ReportMetric(guided, "speedup_guided")
}

// ---------------------------------------------------------------------------
// §4 scratch-discipline claim: plane-sized scratch (vector) vs
// pencil-sized scratch (cache-tuned) on a 1994-class 2 MB cache — the
// memory-system mechanism behind the paper's >10x serial tuning gain.

func BenchmarkScratchDiscipline(b *testing.B) {
	cfg := cachesim.DefaultScratchConfig(89, 75, 4, 2<<20)
	var plane, pencil cachesim.ScratchReport
	b.Run("plane", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plane = cachesim.ScratchTrace(cfg, cachesim.PlaneScratch)
		}
		b.ReportMetric(100*plane.MissRate, "miss_%")
	})
	b.Run("pencil", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pencil = cachesim.ScratchTrace(cfg, cachesim.PencilScratch)
		}
		b.ReportMetric(100*pencil.MissRate, "miss_%")
		b.ReportMetric(cachesim.ScratchSpeedupEstimate(plane, pencil, 1, 100), "est_speedup_x")
	})
}

// ---------------------------------------------------------------------------
// §2 framing: vector-length sensitivity of the machines the codes came
// from. The 1M case's first zone (J = 15) cripples a C90 pipe and does
// not bother a cache-based RISC processor — the asymmetry the whole
// approach rides on.

func BenchmarkVectorLengthSensitivity(b *testing.B) {
	c90 := vecperf.CrayC90()
	var short, long float64
	for i := 0; i < b.N; i++ {
		short = c90.ZoneSweepMFLOPS(15, 75*70, 4)
		long = c90.ZoneSweepMFLOPS(175, 450*350, 4)
	}
	b.ReportMetric(short, "c90_J15_MFLOPS")
	b.ReportMetric(long, "c90_J175_MFLOPS")
	b.ReportMetric(float64(c90.HalfPerformanceLength(4)), "n_half")
}

// ---------------------------------------------------------------------------
// Ablation: tridiagonal (2nd-difference) vs pentadiagonal
// (4th-difference) implicit dissipation — the ARC3D-style accelerator's
// cost per step and its convergence payoff.

func BenchmarkImplicitDissipation(b *testing.B) {
	for _, d4 := range []bool{false, true} {
		name := "tridiagonal-2nd"
		if d4 {
			name = "pentadiagonal-4th"
		}
		b.Run(name, func(b *testing.B) {
			cfg := f3d.DefaultConfig(benchCase())
			cfg.ImplicitDissip4 = d4
			s, err := f3d.NewCacheSolver(cfg, f3d.CacheOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			f3d.InitPulse(s, 0.02)
			// Convergence payoff: residual after a fixed 20 steps.
			probe, err := f3d.NewCacheSolver(cfg, f3d.CacheOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer probe.Close()
			f3d.InitPulse(probe, 0.02)
			var res f3d.StepStats
			for i := 0; i < 20; i++ {
				res = probe.Step()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
			b.ReportMetric(res.Residual*1e6, "residual_at_20steps_x1e6")
		})
	}
}
