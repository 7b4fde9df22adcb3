package f3d

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/parloop"
)

func TestShapeCfgStoreLoad(t *testing.T) {
	c := NewShapeCfg(StepShape{RHSJK: true})
	if got := c.Load(); !got.RHSJK || got.RHSL {
		t.Fatalf("initial shape = %+v", got)
	}
	c.Store(StepShape{Merged: true})
	if got := c.Load(); !got.Merged || got.RHSJK {
		t.Fatalf("stored shape = %+v", got)
	}
}

// shapeFromBits enumerates StepShape: bit i of bits sets the i-th
// field, so 0..127 covers every value of the type.
func shapeFromBits(bits int) StepShape {
	on := func(i int) bool { return bits&(1<<i) != 0 }
	return StepShape{
		RHSJK: on(0), RHSL: on(1), SweepJK: on(2), SweepL: on(3),
		BC: on(4), FissionRHS: on(5), Merged: on(6),
	}
}

// Every one of the 2⁷ step shapes — each phase parallel or serial, RHS
// fissioned or not, merged or not — must reproduce the serial run's
// residual history, MaxDelta and flow state bitwise, on both solvers
// the step driver serves. The check registry proves this for the plan
// transforms across its full matrix; this is the solver-local
// exhaustive version.
func TestShapedStepsMatchSerialBitwise(t *testing.T) {
	cfg := testConfig(10, 9, 8)
	type stepper interface {
		Solver
		Close()
	}
	for _, v := range []struct {
		name string
		new  func(CacheOptions) (stepper, error)
	}{
		{"cache", func(o CacheOptions) (stepper, error) { return NewCacheSolver(cfg, o) }},
		{"block", func(o CacheOptions) (stepper, error) { return NewBlockSolver(cfg, o) }},
	} {
		ref := mustSolver(v.new(CacheOptions{}))
		defer ref.Close()
		InitPulse(ref, 0.01)
		refStats := make([]StepStats, 4)
		for i := range refStats {
			refStats[i] = ref.Step()
		}
		for _, workers := range []int{2, 4} {
			team := parloop.NewTeam(workers)
			for bits := 0; bits < 1<<7; bits++ {
				sh := shapeFromBits(bits)
				s := mustSolver(v.new(CacheOptions{Team: team, Shape: NewShapeCfg(sh)}))
				InitPulse(s, 0.01)
				for i := range refStats {
					if st := s.Step(); st != refStats[i] {
						t.Fatalf("%s %+v workers=%d step %d: history drifted: %+v vs %+v",
							v.name, sh, workers, i, st, refStats[i])
					}
				}
				if d := MaxPointwiseDiff(s, ref); d != 0 {
					t.Fatalf("%s %+v workers=%d: final state differs by %g", v.name, sh, workers, d)
				}
				s.Close()
			}
			team.Close()
		}
	}
}

// A mid-run ShapeCfg retarget takes effect at the next step boundary
// and never changes the answer — the applied-plan seam.
func TestShapeRetargetMidRunBitwise(t *testing.T) {
	cfg := testConfig(10, 9, 8)
	ref := newCache(t, cfg, CacheOptions{})
	InitPulse(ref, 0.01)

	team := parloop.NewTeam(3)
	defer team.Close()
	shc := NewShapeCfg(StepShape{RHSJK: true, FissionRHS: true})
	s := newCache(t, cfg, CacheOptions{Team: team, Shape: shc})
	InitPulse(s, 0.01)
	for i := 0; i < 6; i++ {
		if i == 2 {
			shc.Store(StepShape{Merged: true, RHSJK: true, RHSL: true, SweepJK: true, SweepL: true, BC: true})
		}
		if i == 4 {
			shc.Store(StepShape{SweepJK: true, SweepL: true})
		}
		want := ref.Step()
		got := s.Step()
		if got.Residual != want.Residual {
			t.Fatalf("step %d: residual drifted under retarget: %.17g vs %.17g", i, got.Residual, want.Residual)
		}
	}
	if d := MaxPointwiseDiff(s, ref); d != 0 {
		t.Fatalf("final state differs by %g", d)
	}
}

// Shape reports the shape the current/last step actually ran, not a
// mid-step retarget.
func TestSolverShapeReportsCurrentStep(t *testing.T) {
	cfg := testConfig(6, 5, 4)
	team := parloop.NewTeam(2)
	defer team.Close()
	shc := NewShapeCfg(StepShape{RHSJK: true, RHSL: true})
	s := newCache(t, cfg, CacheOptions{Team: team, Shape: shc})
	InitPulse(s, 0.01)
	if got := s.Shape(); !got.RHSJK {
		t.Fatalf("pre-step shape = %+v", got)
	}
	s.Step()
	shc.Store(StepShape{SweepJK: true})
	if got := s.Shape(); !got.RHSJK || got.SweepJK {
		t.Fatalf("Shape() after retarget reports the pending shape: %+v", got)
	}
	s.Step()
	if got := s.Shape(); !got.SweepJK || got.RHSJK {
		t.Fatalf("Shape() after step did not adopt the retarget: %+v", got)
	}
}

// PhaseTrace labels each phase "<prefix>/<phase>" on the team's tracer
// and restores the team label afterwards, so a traced run yields
// per-phase loops for the planner.
func TestPhaseTraceLabelsPhases(t *testing.T) {
	cfg := testConfig(8, 7, 6)
	tr := obs.NewTracer(1<<14, nil)
	tr.Enable()
	team := parloop.NewTeam(3)
	defer team.Close()
	team.SetTracer(tr, "jobX")
	s := newCache(t, cfg, CacheOptions{Team: team, PhaseTrace: "jobX"})
	defer s.Close()
	InitPulse(s, 0.01)
	for i := 0; i < 2; i++ {
		s.Step()
	}
	if got := team.Label(); got != "jobX" {
		t.Fatalf("team label not restored after step: %q", got)
	}
	seen := map[string]bool{}
	for _, e := range tr.Events() {
		if strings.HasPrefix(e.Name, "jobX/") {
			seen[strings.TrimPrefix(e.Name, "jobX/")] = true
		}
	}
	// bc is absent: DefaultShape leaves it serial (§3, too cheap to
	// amortize a region), and serial phases emit no region events.
	for _, phase := range []string{"rhs", "sweep-jk", "sweep-l"} {
		if !seen[phase] {
			t.Errorf("phase %q not traced (saw %v)", phase, seen)
		}
	}
	if seen["bc"] {
		t.Error("serial bc phase emitted region events")
	}

	// Fission splits the trace into rhs-jk / rhs-l loops.
	tr2 := obs.NewTracer(1<<14, nil)
	tr2.Enable()
	team2 := parloop.NewTeam(3)
	defer team2.Close()
	team2.SetTracer(tr2, "jobY")
	s2 := newCache(t, cfg, CacheOptions{
		Team: team2, PhaseTrace: "jobY",
		Shape: NewShapeCfg(StepShape{RHSJK: true, RHSL: true, SweepJK: true, SweepL: true, BC: true, FissionRHS: true}),
	})
	defer s2.Close()
	InitPulse(s2, 0.01)
	s2.Step()
	seen2 := map[string]bool{}
	for _, e := range tr2.Events() {
		seen2[e.Name] = true
	}
	if !seen2["jobY/rhs-jk"] || !seen2["jobY/rhs-l"] {
		t.Errorf("fissioned phases not traced separately: %v", seen2)
	}
}

// A merged step traces as one "step" loop.
func TestPhaseTraceMergedStep(t *testing.T) {
	cfg := testConfig(8, 7, 6)
	tr := obs.NewTracer(1<<14, nil)
	tr.Enable()
	team := parloop.NewTeam(3)
	defer team.Close()
	team.SetTracer(tr, "jobZ")
	s := newCache(t, cfg, CacheOptions{Team: team, Shape: mergedCfg(true), PhaseTrace: "jobZ"})
	defer s.Close()
	InitPulse(s, 0.01)
	s.Step()
	found := false
	for _, e := range tr.Events() {
		if e.Name == "jobZ/step" {
			found = true
		}
	}
	if !found {
		t.Error("merged step not traced as jobZ/step")
	}
}
