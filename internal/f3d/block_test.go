package f3d

import (
	"math"
	"slices"
	"testing"

	"repro/internal/grid"
	"repro/internal/parloop"
)

func newBlock(t *testing.T, cfg Config, opts CacheOptions) *BlockSolver {
	t.Helper()
	s, err := NewBlockSolver(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestBlockUniformFlowPreservedExactly(t *testing.T) {
	cfg := testConfig(9, 8, 7)
	s := newBlock(t, cfg, CacheOptions{})
	InitUniform(s)
	for i := 0; i < 5; i++ {
		st := s.Step()
		if st.Residual != 0 || st.MaxDelta != 0 {
			t.Fatalf("step %d: block solver drifted on uniform flow (res %g, dq %g)",
				i, st.Residual, st.MaxDelta)
		}
	}
}

func TestBlockSolverConverges(t *testing.T) {
	cfg := testConfig(12, 11, 10)
	s := newBlock(t, cfg, CacheOptions{})
	InitPulse(s, 0.05)
	first := s.Step()
	var last StepStats
	for i := 0; i < 60; i++ {
		last = s.Step()
		if math.IsNaN(last.Residual) {
			t.Fatalf("step %d: block solver produced NaN", i)
		}
	}
	if last.Residual > first.Residual/10 {
		t.Errorf("block residual did not decay: %g -> %g", first.Residual, last.Residual)
	}
}

func TestBlockAndDiagonalShareRHS(t *testing.T) {
	// Identical initial data gives an identical first residual (the RHS
	// is shared); the implicit paths then differ.
	cfg := testConfig(10, 9, 8)
	bs := newBlock(t, cfg, CacheOptions{})
	cs := newCache(t, cfg, CacheOptions{})
	InitPulse(bs, 0.03)
	InitPulse(cs, 0.03)
	rb := bs.Step()
	rc := cs.Step()
	if rb.Residual != rc.Residual {
		t.Errorf("first-step residuals differ: block %.17g vs diagonal %.17g", rb.Residual, rc.Residual)
	}
	if d := MaxPointwiseDiff(bs, cs); d == 0 {
		t.Error("block and diagonal schemes should differ after an implicit step (different operators)")
	}
}

func TestBlockAndDiagonalReachSameSteadyState(t *testing.T) {
	// Both operators drive the same RHS to zero: after damping a pulse
	// they agree to the convergence tolerance, not bitwise.
	cfg := testConfig(9, 8, 7)
	bs := newBlock(t, cfg, CacheOptions{})
	cs := newCache(t, cfg, CacheOptions{})
	InitPulse(bs, 0.02)
	InitPulse(cs, 0.02)
	for i := 0; i < 200; i++ {
		bs.Step()
		cs.Step()
	}
	if d := MaxPointwiseDiff(bs, cs); d > 1e-6 {
		t.Errorf("steady states differ by %g", d)
	}
}

func TestBlockSerialParallelAgreeBitwise(t *testing.T) {
	cfg := testConfig(9, 9, 8)
	serial := newBlock(t, cfg, CacheOptions{})
	team := parloop.NewTeam(3)
	defer team.Close()
	par := newBlock(t, cfg, CacheOptions{Team: team})
	InitPulse(serial, 0.02)
	InitPulse(par, 0.02)
	for i := 0; i < 5; i++ {
		ss := serial.Step()
		sp := par.Step()
		if ss.Residual != sp.Residual {
			t.Fatalf("step %d: block serial/parallel residual mismatch", i)
		}
	}
	if d := MaxPointwiseDiff(serial, par); d != 0 {
		t.Fatalf("block serial/parallel solutions differ by %g", d)
	}
}

func TestBlockViscousStable(t *testing.T) {
	cfg := testConfig(8, 8, 10)
	cfg.Viscous = true
	cfg.Re = 100
	s := newBlock(t, cfg, CacheOptions{})
	InitPulse(s, 0.03)
	for i := 0; i < 30; i++ {
		st := s.Step()
		if math.IsNaN(st.Residual) {
			t.Fatalf("step %d: viscous block solver blew up", i)
		}
	}
}

// The block solver runs the shared step driver, so it takes any shape
// (TestShapedStepsMatchSerialBitwise runs all 2⁵) and the driver's
// options; only what it cannot honour is refused at construction.
func TestBlockSolverShapes(t *testing.T) {
	cfg := testConfig(8, 8, 8)
	for _, tc := range []struct {
		name  string
		shape *StepShape
	}{
		{"nil is the default", nil},
		{"all serial", &StepShape{}},
		{"merged", mergedCfg(true)},
		{"rhs only", &StepShape{RHS: true}},
		{"parallel bc", &StepShape{BC: true}},
	} {
		s, err := NewBlockSolver(cfg, CacheOptions{Shape: tc.shape})
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if tc.shape == nil && s.Shape() != DefaultShape() {
			t.Errorf("nil shape runs %+v, want the default", s.Shape())
		}
		s.Close()
	}
	bad := cfg
	bad.Dt = -1
	if _, err := NewBlockSolver(bad, CacheOptions{}); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := NewBlockSolver(cfg, CacheOptions{ZoneTeams: newZoneTeams(t, 1, 2)}); err == nil {
		t.Error("ZoneTeams accepted (the block solver would silently ignore them)")
	}
}

// A scheduler may grow the team between steps: the extra workers need
// scratch before the next region opens (the block solver used to size
// its scratch once, at construction, and indexed past it).
func TestBlockTeamResizeMidRun(t *testing.T) {
	cfg := testConfig(9, 9, 8)
	ref := newBlock(t, cfg, CacheOptions{})
	team := parloop.NewTeam(2)
	defer team.Close()
	s := newBlock(t, cfg, CacheOptions{Team: team})
	InitPulse(ref, 0.02)
	InitPulse(s, 0.02)
	for i := 0; i < 6; i++ {
		if i == 2 {
			team.Resize(4)
		}
		if i == 4 {
			team.Resize(1)
		}
		want, got := ref.Step(), s.Step()
		if math.Float64bits(got.Residual) != math.Float64bits(want.Residual) ||
			math.Float64bits(got.MaxDelta) != math.Float64bits(want.MaxDelta) {
			t.Fatalf("step %d: residual %x / max delta %x, unresized %x / %x",
				i, got.Residual, got.MaxDelta, want.Residual, want.MaxDelta)
		}
	}
	if d := MaxPointwiseDiff(ref, s); d != 0 {
		t.Fatalf("final state differs by %g", d)
	}
}

// Phase spans and Remote links reach the block solver through the
// shared driver instead of being dropped.
func TestBlockSolverHonoursDriverOptions(t *testing.T) {
	cfg := testConfig(8, 7, 6)
	cfg.Interfaces = []Interface{{Left: 0, Right: Remote}}
	team, tr := tracedTeam(t, 2, "blk")
	s := newBlock(t, cfg, CacheOptions{Team: team})
	InitPulse(s, 0.01)
	receiveOwnPlane(t, s)
	want := make([]float64, len(s.links[0].plane))
	copyPlane(s.Zones()[0], 1, want, false)
	s.Step()
	got := make([]float64, len(want))
	copyPlane(s.Zones()[0], s.Zones()[0].Zone.JMax-1, got, false)
	if !slices.Equal(got, want) {
		t.Error("the received plane is not on the Remote J-max face after the step")
	}
	spans := phaseSpans(tr.Events())
	if len(spans) != 5 || spans["blk/"+cfg.Case.Zones[0].Name+"/sweep-jk"].calls != 1 {
		t.Errorf("phase spans %v, want the 5 groups of the default shape, sweep-jk among them", spans)
	}
}

func TestBlockMultiZone(t *testing.T) {
	cfg := DefaultConfig(grid.Scaled(grid.Paper1M(), 0.1))
	s := newBlock(t, cfg, CacheOptions{})
	InitPulse(s, 0.02)
	st := s.Step()
	if st.Residual <= 0 || math.IsNaN(st.Residual) {
		t.Fatalf("multi-zone block step residual %g", st.Residual)
	}
}
