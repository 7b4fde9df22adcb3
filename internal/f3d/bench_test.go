package f3d

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/euler"
	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/parloop"
	"repro/internal/sched"
)

func benchConfig() Config {
	return DefaultConfig(grid.Single(33, 27, 25))
}

func mustSolver[T Solver](s T, err error) T {
	if err != nil {
		panic(err)
	}
	return s
}

// BenchmarkStepVariants times one full time step of each code shape at
// the same problem size: the repo-level serial-tuning measurement lives
// in the root bench file; this is the per-package view.
func BenchmarkStepVariants(b *testing.B) {
	cfg := benchConfig()
	b.Run("vector", func(b *testing.B) {
		s := mustSolver(NewVectorSolver(cfg))
		InitPulse(s, 0.02)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
	})
	b.Run("cache-scalar-reference", func(b *testing.B) {
		s := mustSolver(NewReferenceSolver(cfg))
		defer s.Close()
		InitPulse(s, 0.02)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
	})
	b.Run("cache", func(b *testing.B) {
		s := mustSolver(NewCacheSolver(cfg, CacheOptions{}))
		defer s.Close()
		InitPulse(s, 0.02)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
	})
	b.Run("block", func(b *testing.B) {
		s := mustSolver(NewBlockSolver(cfg, CacheOptions{}))
		defer s.Close()
		InitPulse(s, 0.02)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
	})
}

// BenchmarkServedStep times the step f3dd serves — NewCacheSolver on
// DefaultConfig with the default shape, as an f3d.Job runs it — at the
// benchmark's serve_solo sizes, on one processor and on a two-worker
// parloop.Team: the in-process pair for a change to the kernel layer.
func BenchmarkServedStep(b *testing.B) {
	for _, d := range [][3]int{{33, 27, 25}, {41, 33, 29}, {49, 37, 31}} {
		for _, procs := range []int{1, 2} {
			b.Run(fmt.Sprintf("%dx%dx%d/P=%d", d[0], d[1], d[2], procs), func(b *testing.B) {
				team := parloop.NewTeam(procs)
				defer team.Close()
				s := mustSolver(NewCacheSolver(DefaultConfig(grid.Single(d[0], d[1], d[2])), CacheOptions{Team: team}))
				defer s.Close()
				InitPulse(s, 0.02)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Step()
				}
			})
		}
	}
}

// wholeBudget asks for every processor whatever the step's work, so a
// job is granted the scheduler's whole budget.
type wholeBudget struct{ *Job }

func (wholeBudget) Parallelism() int { return 1 << 16 }

// BenchmarkOneStepBreakEven re-takes the served break-even behind
// model.ForkCycles (DESIGN §12): one-step f3d jobs, as serve_small
// submits them, through a real scheduler on a budget of one processor
// and on one of two, alternating, each job granted the whole budget. It
// reports the largest region's work in flops, the p50 submit-to-done
// wall of each side and their ratio; the second processor pays once
// P=2/P=1 falls below 1.
func BenchmarkOneStepBreakEven(b *testing.B) {
	for _, d := range [][3]int{{9, 9, 9}, {11, 10, 9}, {13, 11, 9}, {15, 12, 10}, {17, 13, 11}, {21, 17, 13}} {
		b.Run(fmt.Sprintf("%dx%dx%d", d[0], d[1], d[2]), func(b *testing.B) {
			cfg := DefaultConfig(grid.Single(d[0], d[1], d[2]))
			var region float64
			for _, l := range StepProfileFor(cfg.Case, DefaultShape()).Loops {
				region = max(region, l.WorkCycles/float64(max(l.SyncEvents, 1)))
			}
			scheds := []*sched.Scheduler{sched.New(sched.Config{Procs: 1}), sched.New(sched.Config{Procs: 2})}
			walls := make([][]time.Duration, len(scheds))
			for i := 0; i < b.N; i++ {
				for k := range scheds {
					p := (i + k) % len(scheds) // alternate which side goes first
					job, err := NewJob("breakeven", cfg, 1, 0.02)
					if err != nil {
						b.Fatal(err)
					}
					start := time.Now()
					h, err := scheds[p].Submit(wholeBudget{job})
					if err != nil {
						b.Fatal(err)
					}
					if err := h.Wait(context.Background()); err != nil {
						b.Fatal(err)
					}
					walls[p] = append(walls[p], time.Since(start))
				}
			}
			b.StopTimer()
			for _, s := range scheds {
				s.Close()
			}
			p50 := func(w []time.Duration) float64 { slices.Sort(w); return float64(w[len(w)/2]) / 1e3 }
			one, two := p50(walls[0]), p50(walls[1])
			b.ReportMetric(region, "region-flops")
			b.ReportMetric(one, "P=1-us")
			b.ReportMetric(two, "P=2-us")
			b.ReportMetric(two/one, "P=2/P=1")
		})
	}
}

// BenchmarkBlockVsDiagonal isolates the implicit-sweep cost difference
// between the exact block operator and the diagonalized approximation —
// the ablation the BlockSolver exists for.
func BenchmarkBlockVsDiagonal(b *testing.B) {
	cfg := benchConfig()
	const n = 33
	cs := newCacheScratch(n, &scalarKernelSet)
	bs := newBlockScratch(n)
	fs := cfg.Freestream
	for i := 0; i < n; i++ {
		p := fs
		p.U += 0.01 * float64(i%5)
		u := p.Cons()
		cs.p.q[i] = u
		bs.p.q[i] = u
		cs.p.r[i] = linalg.Vec5{1e-3, 0, 0, 0, 1e-3}
		bs.p.r[i] = cs.p.r[i]
	}
	b.Run("diagonal-sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sweepLineMode(cs.p, cs.p.q, nil, cs.p.r, n, euler.X, 0.01, 0.005, cfg.EpsI, 0, nil, false)
		}
	})
	solver := mustSolver(NewBlockSolver(cfg, CacheOptions{}))
	defer solver.Close()
	b.Run("block-sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			solver.blockSweepLine(bs, n, euler.X, 0.01, nil)
		}
	})
}

// BenchmarkSweepLineKernels compares the scalar and tuned implicit
// sweep kernels on one line — the tuned batch solve, hoisted band
// assembly and axis-specialised transforms are the step-time lever this
// layer exists for. Each axis has its own specialised eigensystem, so
// all three are timed, plus the line the served L sweep of a viscous
// stretched case runs (viscRe > 0, metric arrays present).
func BenchmarkSweepLineKernels(b *testing.B) {
	cfg := benchConfig()
	const n = 64
	stretched := newAxisGeom(grid.StretchCoords(n, 1.5))
	for _, impl := range []struct {
		name string
		kern *kernelSet
	}{{"scalar", &scalarKernelSet}, {"tuned", &tunedKernelSet}} {
		kern := impl.kern
		for _, line := range []struct {
			name    string
			ax      euler.Axis
			viscRe  float64
			g       *axisGeom
			dissip4 bool
		}{
			{"", euler.X, 0, nil, false},
			{"-dissip4", euler.X, 0, nil, true},
			{"-y", euler.Y, 0, nil, false},
			{"-z", euler.Z, 0, nil, false},
			{"-z-viscous-stretched", euler.Z, 1200, stretched, false},
		} {
			b.Run(impl.name+line.name, func(b *testing.B) {
				sc := newCacheScratch(n, kern)
				fs := cfg.Freestream
				r0 := make([]linalg.Vec5, n)
				for i := 0; i < n; i++ {
					p := fs
					p.U += 0.01 * float64(i%5)
					sc.p.q[i] = p.Cons()
					euler.DecomposeInto(&sc.p.s[i], &sc.p.q[i])
					r0[i] = linalg.Vec5{1e-3, 0, 0, 0, 1e-3}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// The sweep solves r in place; reload it so every
					// iteration works on the same, well-scaled data.
					copy(sc.p.r, r0)
					kern.sweepLine(sc.p, sc.p.q, sc.p.s, sc.p.r, n, line.ax, 0.01, 0.005, cfg.EpsI, line.viscRe, line.g, line.dissip4)
				}
			})
		}
	}
}

// BenchmarkRHSLineKernels times the RHS line kernels, the scalar
// reference's and the served ones: flux-tuned reads the point records
// that decompose builds (one fillPlane row), as the served step does.
func BenchmarkRHSLineKernels(b *testing.B) {
	const n = 128
	cfg := benchConfig()
	q := make([]linalg.Vec5, n)
	s := make([]euler.PointState, n)
	r := make([]linalg.Vec5, n)
	flux := make([]linalg.Vec5, n)
	sigma := make([]float64, n)
	for i := range q {
		p := cfg.Freestream
		p.Rho += 0.001 * float64(i%7)
		q[i] = p.Cons()
		euler.DecomposeInto(&s[i], &q[i])
	}
	b.Run("flux", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rhsLineFlux(euler.X, q, nil, flux, sigma, n)
		}
	})
	b.Run("flux-tuned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rhsLineFluxTuned(euler.X, q, s, flux, sigma, n)
		}
	})
	b.Run("decompose", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range s {
				euler.DecomposeInto(&s[j], &q[j])
			}
		}
	})
	b.Run("accum", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rhsLineAccum(q, flux, sigma, r, n, 0.01, 0.005, cfg.Eps4, cfg.Eps2B, nil)
		}
	})
	b.Run("viscous", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			viscousLineAccum(q, r, n, 0.01, 0.005, 1000, nil)
		}
	})
}

// BenchmarkLayoutGather measures the line gathers for the three axes in
// both layouts — the stride costs the paper's index reordering attacks.
func BenchmarkLayoutGather(b *testing.B) {
	z := grid.NewZone("z", 64, 64, 64)
	for _, layout := range []grid.Layout{grid.ComponentMajor, grid.PointMajor} {
		f := grid.NewStateField(&z, euler.NC, layout)
		dst := make([]linalg.Vec5, 64)
		for _, ax := range []euler.Axis{euler.X, euler.Y, euler.Z} {
			b.Run(fmt.Sprintf("%v/%v", layout, ax), func(b *testing.B) {
				b.SetBytes(64 * euler.NC * 8)
				for i := 0; i < b.N; i++ {
					loadLine(&f, ax, 10, 12, dst, 64)
				}
			})
		}
	}
}

func BenchmarkZonalExchange(b *testing.B) {
	c, ifaces := SplitAlongJ("z", 41, 33, 31, 20)
	cfg := DefaultConfig(c)
	cfg.Interfaces = ifaces
	s := mustSolver(NewCacheSolver(cfg, CacheOptions{}))
	defer s.Close()
	InitUniform(s)
	b.Run("capture", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			captureLinks(s.links, s.zones)
		}
	})
	b.Run("apply", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			applyLinks(s.links, 0, s.zones[0])
			applyLinks(s.links, 1, s.zones[1])
		}
	})
}
