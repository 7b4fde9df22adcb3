package check

import (
	"context"
	"fmt"
	"time"

	"repro/internal/euler"
	"repro/internal/f3d"
	"repro/internal/grid"
	"repro/internal/parloop"
	"repro/internal/sched"
)

// f3dKernels adapts the real solver to the conformance harness: the
// cache-tuned solver with one fork-join per phase, the merged
// (Example 3: parallelize the parent) variant with barriers between
// phases, and the served configuration — exactly what a kind:"f3d"
// submission to f3dd runs. Over the team-size and mid-run-resize axes
// the paper's §5 claim — identical answers and convergence behaviour at
// every processor count — must hold bitwise over the full residual
// history and the final flow state.
//
// The serial reference always runs the scalar kernels
// (f3d.NewReferenceSolver) while every parallel body runs the tuned
// production kernels, so each cell proves tuned-parallel against
// scalar-serial bits, not mere self-consistency.
func f3dKernels() []Kernel {
	ks := []Kernel{}
	for _, merged := range []bool{false, true} {
		name := "f3d-cache-tuned"
		if merged {
			name = "f3d-merged-tuned"
		}
		shape := f3d.DefaultShape()
		shape.Merged = merged
		ks = append(ks, Kernel{
			Name: name, N: 6, MinN: 3, Steps: f3dSteps,
			Serial: runF3DReference,
			Parallel: func(t *parloop.Team, spec Spec) []float64 {
				return runF3D(spec.N, t, &shape, spec.StepHook)
			},
		})
	}
	// The served cell reinterprets the team-size axis as the scheduler's
	// processor budget (the job's team is whatever plateau the scheduler
	// grants under it) and the resize column as a scheduler-driven
	// shrink and regrow of that grant mid-run. n = 10
	// (12×11×10, M = 8) is a case whose work pays for a fork.
	ks = append(ks, Kernel{
		Name: "f3d-served", N: 10, MinN: 10, Steps: f3dSteps,
		Serial: func(n int) []float64 {
			return servedView(runF3DReference(n))
		},
		Parallel: func(t *parloop.Team, spec Spec) []float64 {
			return runF3DServed(spec.N, t.Workers(), spec.StepHook != nil)
		},
	})
	return ks
}

// f3dSteps is the number of implicit time steps each conformance run
// advances.
const f3dSteps = 5

// f3dPulse is the conformance initial-condition amplitude.
const f3dPulse = 0.01

// f3dConfig is the conformance case at size n: an n+2 × n+1 × n zone,
// so the three dimensions stay distinct and none divides typical team
// sizes.
func f3dConfig(n int) f3d.Config {
	return f3d.DefaultConfig(grid.Single(n+2, n+1, n))
}

// runF3DReference is the serial reference of every f3d cell: the scalar
// kernels on one thread.
func runF3DReference(n int) []float64 {
	s, err := f3d.NewReferenceSolver(f3dConfig(n))
	if err != nil {
		panic(fmt.Sprintf("check: f3d reference solver: %v", err))
	}
	return stepF3D(s, nil)
}

// runF3D runs the production solver on team under the given shape.
func runF3D(n int, team *parloop.Team, shape *f3d.StepShape, hook func(step int)) []float64 {
	s, err := f3d.NewCacheSolver(f3dConfig(n), f3d.CacheOptions{Team: team, Shape: shape})
	if err != nil {
		panic(fmt.Sprintf("check: f3d solver: %v", err))
	}
	return stepF3D(s, hook)
}

// stepF3D advances a pulse-initialized solver for f3dSteps steps,
// closes it and returns the full observable output: per-step residual
// and max-delta (the convergence history), then every conserved value
// of the final state.
func stepF3D(s *f3d.CacheSolver, hook func(step int)) []float64 {
	defer s.Close()
	f3d.InitPulse(s, f3dPulse)
	out := make([]float64, 0, 2*f3dSteps)
	for i := 0; i < f3dSteps; i++ {
		if hook != nil {
			hook(i)
		}
		st := s.Step()
		out = append(out, st.Residual, st.MaxDelta)
	}
	return appendState(out, s)
}

// appendState appends every conserved value of the solver's zones in
// J-fastest point order.
func appendState(out []float64, s f3d.Solver) []float64 {
	var buf [euler.NC]float64
	for _, zs := range s.Zones() {
		z := zs.Zone
		for l := 0; l < z.LMax; l++ {
			for k := 0; k < z.KMax; k++ {
				for j := 0; j < z.JMax; j++ {
					zs.Q.Point(j, k, l, buf[:])
					out = append(out, buf[:]...)
				}
			}
		}
	}
	return out
}

// servedView reduces a stepF3D output to what a served job exposes: the
// residual history (a Job's History records no max-delta) and the final
// state.
func servedView(full []float64) []float64 {
	out := make([]float64, 0, len(full)-f3dSteps)
	for i := 0; i < f3dSteps; i++ {
		out = append(out, full[2*i])
	}
	return append(out, full[2*f3dSteps:]...)
}

// runF3DServed runs the conformance case the way f3dd serves it: an
// f3d.Job with default configuration, submitted to a real scheduler
// with a budget of procs processors and run through Job.Run on the
// granted team. With resize set, one-processor jobs submitted after
// step 1 fill the budget, so the scheduler shrinks the solver's grant
// at its next checkpoint (shrink-to-admit); they are released after
// step 3, and the scheduler grows the grant back at the following
// checkpoint — the Team.Resize pattern a contended daemon applies. A
// one-processor grant has nothing to give, so it runs unresized.
func runF3DServed(n, procs int, resize bool) []float64 {
	job, err := f3d.NewJob("served", f3dConfig(n), f3dSteps, f3dPulse)
	if err != nil {
		panic(fmt.Sprintf("check: f3d job: %v", err))
	}
	var state []float64
	job.WithFinalHook(func(s f3d.Solver) { state = appendState(nil, s) })

	s := sched.New(sched.Config{Procs: procs})
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	wantResizes := 0
	if resize {
		release := make(chan struct{})
		var squeeze []*sched.Handle
		job.WithStepHook(func(step int) error {
			switch step {
			case 1:
				// One more than the idle processors: the last submission
				// queues behind a full budget and triggers the shrink.
				for i := s.Metrics().Free; i >= 0; i-- {
					h, err := s.Submit(sched.NewFuncJob("squeeze", 1, func(*sched.Grant) error {
						<-release
						return nil
					}))
					if err != nil {
						return err
					}
					squeeze = append(squeeze, h)
				}
			case 3:
				close(release)
				for _, h := range squeeze {
					if h.Status().State == sched.StateQueued {
						continue // never admitted: the solver had nothing to give
					}
					if err := h.Wait(ctx); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if sched.PlateauGrant(job.Parallelism(), procs) > 1 {
			wantResizes = 2 // the shrink and the regrow
		}
	}

	h, err := s.Submit(job)
	if err != nil {
		panic(fmt.Sprintf("check: submit f3d job: %v", err))
	}
	if err := h.Wait(ctx); err != nil {
		panic(fmt.Sprintf("check: served f3d job (procs=%d): %v", procs, err))
	}
	st := h.Status()
	if st.Resizes != wantResizes {
		panic(fmt.Sprintf("check: served f3d job (procs=%d): %d grant resizes, want %d", procs, st.Resizes, wantResizes))
	}
	if want := sched.PlateauGrant(job.Parallelism(), procs); st.Granted != want || (procs > 1 && want < 2) {
		panic(fmt.Sprintf("check: served f3d job (procs=%d): granted %d, want PlateauGrant(%d, %d) = %d above 1",
			procs, st.Granted, job.Parallelism(), procs, want))
	}
	return append(job.History().Residuals, state...)
}
