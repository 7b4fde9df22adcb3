package check

import (
	"repro/internal/f3d"
	"repro/internal/parloop"
)

// planKernels are the f3d solver-shape conformance cells: step shapes
// beyond the served default — a fissioned RHS (StepShape.FissionRHS),
// a mixed fission with one side parallel and one serial, a serial RHS
// under parallel sweeps, and a mid-run retarget of the shape between
// steps — must reproduce the serial reference's residual history and
// final flow state bitwise (MaxULPs 0). The autopar pipeline's plans
// lower to a subset of these shapes (ShapeFromPlan never fissions);
// the cells prove that changing the step's synchronization structure,
// by a plan or by hand, never changes the answer.
func planKernels() []Kernel {
	shapes := []struct {
		name  string
		shape f3d.StepShape
	}{
		// Fission with both sides parallel: same arithmetic as the
		// fused region, one extra fork-join.
		{"f3d-plan-fission", f3d.StepShape{
			RHSJK: true, RHSL: true, SweepJK: true, SweepL: true, BC: true, FissionRHS: true,
		}},
		// Mixed fission: J/K passes parallel, L passes and BC serial.
		{"f3d-plan-mixed", f3d.StepShape{
			RHSJK: true, SweepJK: true, FissionRHS: true,
		}},
		// A demoted RHS (unfissioned, serial) under parallel sweeps:
		// what a plan emits when only the rhs fails its budget.
		{"f3d-plan-serial-rhs", f3d.StepShape{
			SweepJK: true, SweepL: true, BC: true,
		}},
	}
	ks := make([]Kernel, 0, len(shapes)+1)
	for _, sc := range shapes {
		sc := sc
		ks = append(ks, Kernel{
			Name: sc.name, N: 6, MinN: 3, Steps: f3dSteps,
			Serial: runF3DReference,
			Parallel: func(t *parloop.Team, spec Spec) []float64 {
				return runF3D(spec.N, t, f3d.NewShapeCfg(sc.shape), spec.StepHook)
			},
		})
	}
	// The applied-plan cell: the run starts under one shape and a
	// "plan" retargets the ShapeCfg between steps — first to the mixed
	// fission shape, then to the fully parallel merged step — exactly
	// how a daemon applies a plan from run N to run N+1 (or live, at a
	// step boundary). The residual history must stay bitwise serial
	// through both reconfigurations.
	ks = append(ks, Kernel{
		Name: "f3d-plan-applied", N: 6, MinN: 3, Steps: f3dSteps,
		Serial: runF3DReference,
		Parallel: func(t *parloop.Team, spec Spec) []float64 {
			cfg := f3d.NewShapeCfg(f3d.StepShape{RHSJK: true, FissionRHS: true})
			hook := func(step int) {
				switch step {
				case 2:
					cfg.Store(f3d.StepShape{
						RHSJK: true, RHSL: true, SweepJK: true, SweepL: true, FissionRHS: true,
					})
				case 3:
					cfg.Store(f3d.StepShape{
						Merged: true, RHSJK: true, RHSL: true, SweepJK: true, SweepL: true, BC: true,
					})
				}
				if spec.StepHook != nil {
					spec.StepHook(step)
				}
			}
			return runF3D(spec.N, t, cfg, hook)
		},
	})
	return ks
}
