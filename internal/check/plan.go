package check

import (
	"repro/internal/autopar/pipeline"
	"repro/internal/f3d"
	"repro/internal/parloop"
)

// PlanConflicts projects tracker races into the planner's wire-level
// conflict evidence: the bridge from a dependence-instrumented run to
// an autopar plan. An observed race becomes a Conflict the planner
// must treat as an unconditional demotion to serial.
func PlanConflicts(races []Race) []pipeline.Conflict {
	out := make([]pipeline.Conflict, 0, len(races))
	for _, r := range races {
		out = append(out, pipeline.Conflict{
			Array:  r.Array,
			Index:  r.Index,
			Kind:   r.Kind(),
			Detail: r.String(),
		})
	}
	return out
}

// planKernels are the plan-conformance cells: every step shape an
// autopar plan can ask the f3d cache solver to execute — fissioned
// RHS, mixed fission (one side parallel, one serial), a serial RHS
// under parallel sweeps, and a mid-run plan application that
// retargets the shape between steps — must reproduce the serial
// reference's residual history and final flow state bitwise
// (MaxULPs 0). This is the headline guarantee of the evidence-driven
// pipeline: applying a plan never changes the answer, only the
// synchronization structure.
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
		// The mixed-body outcome: J/K passes parallel, L passes and BC
		// serial — what the planner emits when only one side of the
		// body carries dependence evidence.
		{"f3d-plan-mixed", f3d.StepShape{
			RHSJK: true, SweepJK: true, FissionRHS: true,
		}},
		// A demoted RHS (unfissioned, serial) under parallel sweeps:
		// the conflict-demotion outcome.
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
