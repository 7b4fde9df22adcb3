package f3d

import (
	"math"
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

// The block solver runs only the seed region structure; every shape
// asking for more must be refused at construction, not silently run as
// something else.
func TestBlockSolverShapes(t *testing.T) {
	cfg := testConfig(8, 8, 8)
	def := DefaultShape()
	for _, tc := range []struct {
		name  string
		shape *ShapeCfg
		ok    bool
	}{
		{"nil is the default", nil, true},
		{"default", NewShapeCfg(def), true},
		{"all serial", NewShapeCfg(StepShape{}), true},
		{"sweeps only", NewShapeCfg(StepShape{SweepJK: true, SweepL: true}), true},
		{"rhs only", NewShapeCfg(StepShape{RHSJK: true, RHSL: true}), true},
		{"merged", mergedCfg(true), false},
		{"fissioned", NewShapeCfg(StepShape{RHSJK: true, RHSL: true, FissionRHS: true}), false},
		{"half rhs jk", NewShapeCfg(StepShape{RHSJK: true}), false},
		{"half rhs l", NewShapeCfg(StepShape{RHSL: true, SweepL: true}), false},
		{"parallel bc", NewShapeCfg(StepShape{RHSJK: true, RHSL: true, SweepJK: true, SweepL: true, BC: true}), false},
	} {
		s, err := NewBlockSolver(cfg, CacheOptions{Shape: tc.shape})
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want accepted=%v", tc.name, err, tc.ok)
		}
		if err == nil {
			s.Close()
		}
	}
	bad := cfg
	bad.Dt = -1
	if _, err := NewBlockSolver(bad, CacheOptions{}); err == nil {
		t.Error("invalid config accepted")
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
