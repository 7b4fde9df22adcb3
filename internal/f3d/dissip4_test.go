package f3d

import (
	"math"
	"testing"

	"repro/internal/parloop"
)

func dissip4Config() Config {
	cfg := testConfig(12, 11, 10)
	cfg.ImplicitDissip4 = true
	return cfg
}

func TestDissip4UniformFlowPreservedExactly(t *testing.T) {
	s := newCache(t, dissip4Config(), CacheOptions{})
	InitUniform(s)
	for i := 0; i < 5; i++ {
		st := s.Step()
		if st.Residual != 0 || st.MaxDelta != 0 {
			t.Fatalf("step %d: pentadiagonal mode drifted on uniform flow", i)
		}
	}
}

func TestDissip4StableAndConverges(t *testing.T) {
	s := newCache(t, dissip4Config(), CacheOptions{})
	InitPulse(s, 0.05)
	first := s.Step()
	var last StepStats
	for i := 0; i < 60; i++ {
		last = s.Step()
		if math.IsNaN(last.Residual) {
			t.Fatalf("pentadiagonal mode blew up at step %d", i)
		}
	}
	if last.Residual > first.Residual/10 {
		t.Errorf("pentadiagonal mode did not converge: %g -> %g", first.Residual, last.Residual)
	}
}

func TestDissip4SerialParallelAgreeBitwise(t *testing.T) {
	cfg := dissip4Config()
	serial := newCache(t, cfg, CacheOptions{})
	team := parloop.NewTeam(3)
	defer team.Close()
	par := newCache(t, cfg, CacheOptions{Team: team})
	InitPulse(serial, 0.02)
	InitPulse(par, 0.02)
	for i := 0; i < 5; i++ {
		serial.Step()
		par.Step()
	}
	if d := MaxPointwiseDiff(serial, par); d != 0 {
		t.Fatalf("pentadiagonal serial/parallel differ by %g", d)
	}
}

func TestDissip4DiffersFromTridiagonalMode(t *testing.T) {
	// The two implicit operators take different paths to the same steady
	// state.
	a := newCache(t, dissip4Config(), CacheOptions{})
	cfg2 := testConfig(12, 11, 10)
	b := newCache(t, cfg2, CacheOptions{})
	InitPulse(a, 0.03)
	InitPulse(b, 0.03)
	ra := a.Step()
	rb := b.Step()
	if ra.Residual != rb.Residual {
		t.Error("first residual should match (shared explicit RHS)")
	}
	if d := MaxPointwiseDiff(a, b); d == 0 {
		t.Error("implicit operators should differ after a step")
	}
	for i := 0; i < 200; i++ {
		a.Step()
		b.Step()
	}
	if d := MaxPointwiseDiff(a, b); d > 1e-6 {
		t.Errorf("steady states differ by %g", d)
	}
}

func TestDissip4UnsupportedVariants(t *testing.T) {
	cfg := dissip4Config()
	if _, err := NewVectorSolver(cfg); err == nil {
		t.Error("VectorSolver accepted ImplicitDissip4")
	}
	if _, err := NewBlockSolver(cfg, CacheOptions{}); err == nil {
		t.Error("BlockSolver accepted ImplicitDissip4")
	}
}

func TestDissip4StretchedViscous(t *testing.T) {
	cfg := stretchedConfig()
	cfg.ImplicitDissip4 = true
	cfg.Viscous, cfg.Re = true, 300
	s := newCache(t, cfg, CacheOptions{})
	InitPulse(s, 0.03)
	for i := 0; i < 40; i++ {
		st := s.Step()
		if math.IsNaN(st.Residual) {
			t.Fatalf("stretched viscous pentadiagonal run blew up at step %d", i)
		}
	}
}
