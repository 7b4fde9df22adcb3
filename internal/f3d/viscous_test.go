package f3d

import (
	"math"
	"testing"

	"repro/internal/euler"
	"repro/internal/grid"
	"repro/internal/parloop"
)

func viscousConfig(re float64) Config {
	cfg := DefaultConfig(grid.Single(9, 9, 11))
	cfg.Viscous = true
	cfg.Re = re
	return cfg
}

func TestViscousValidation(t *testing.T) {
	cfg := viscousConfig(0)
	if err := cfg.Validate(); err == nil {
		t.Error("viscous config with Re=0 accepted")
	}
	cfg.Re = 100
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid viscous config rejected: %v", err)
	}
}

func TestViscousUniformFlowPreservedExactly(t *testing.T) {
	// The viscous stencil is built from neighbor differences, so a
	// uniform freestream must remain a bitwise fixed point.
	cfg := viscousConfig(500)
	s := newCache(t, cfg, CacheOptions{})
	InitUniform(s)
	for i := 0; i < 5; i++ {
		st := s.Step()
		if st.Residual != 0 || st.MaxDelta != 0 {
			t.Fatalf("step %d: viscous uniform flow drifted (res %g, dq %g)", i, st.Residual, st.MaxDelta)
		}
	}
}

func TestViscousVariantsAgreeBitwise(t *testing.T) {
	cfg := viscousConfig(200)
	cs := newCache(t, cfg, CacheOptions{})
	vs := newVector(t, cfg)
	InitPulse(cs, 0.02)
	InitPulse(vs, 0.02)
	for i := 0; i < 6; i++ {
		sc := cs.Step()
		sv := vs.Step()
		if sc.Residual != sv.Residual {
			t.Fatalf("step %d: viscous residuals differ: %.17g vs %.17g", i, sc.Residual, sv.Residual)
		}
	}
	if d := MaxPointwiseDiff(cs, vs); d != 0 {
		t.Fatalf("viscous variants differ by %g", d)
	}
}

func TestViscousSerialParallelAgree(t *testing.T) {
	cfg := viscousConfig(200)
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
		t.Fatalf("viscous serial/parallel differ by %g", d)
	}
}

// shearEnergy measures the kinetic energy of the u-velocity deviation
// from freestream, the quantity viscosity must dissipate.
func shearEnergy(s Solver) float64 {
	cfg := s.Config()
	e := 0.0
	var buf [euler.NC]float64
	for _, zs := range s.Zones() {
		z := zs.Zone
		for l := 1; l < z.LMax-1; l++ {
			for k := 1; k < z.KMax-1; k++ {
				for j := 1; j < z.JMax-1; j++ {
					zs.Q.Point(j, k, l, buf[:])
					u := buf[1] / buf[0]
					du := u - cfg.Freestream.U
					e += du * du
				}
			}
		}
	}
	return e
}

// initShear superimposes a sinusoidal u-velocity profile varying in L —
// a shear layer for the thin-layer terms to diffuse.
func initShear(s Solver, amp float64) {
	cfg := s.Config()
	InitUniform(s)
	for _, zs := range s.Zones() {
		z := zs.Zone
		for l := 1; l < z.LMax-1; l++ {
			phase := 2 * math.Pi * float64(l) / float64(z.LMax-1)
			du := amp * math.Sin(phase)
			for k := 1; k < z.KMax-1; k++ {
				for j := 1; j < z.JMax-1; j++ {
					p := euler.Prim{
						Rho: cfg.Freestream.Rho,
						U:   cfg.Freestream.U + du,
						V:   cfg.Freestream.V,
						W:   cfg.Freestream.W,
						P:   cfg.Freestream.P,
					}
					u := p.Cons()
					zs.Q.SetPoint(j, k, l, u[:])
				}
			}
		}
	}
}

func TestViscosityDampsShearFasterAtLowerRe(t *testing.T) {
	// A shear profile varying along L decays under the thin-layer terms,
	// and decays faster at lower Reynolds number.
	decay := func(re float64) float64 {
		cfg := viscousConfig(re)
		s, err := NewCacheSolver(cfg, CacheOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		initShear(s, 0.05)
		e0 := shearEnergy(s)
		for i := 0; i < 25; i++ {
			s.Step()
		}
		e1 := shearEnergy(s)
		if e0 <= 0 {
			t.Fatal("no initial shear energy")
		}
		return e1 / e0
	}
	lowRe := decay(50)
	highRe := decay(5000)
	if lowRe >= 1 {
		t.Errorf("shear energy did not decay at Re=50: ratio %g", lowRe)
	}
	if lowRe >= highRe {
		t.Errorf("lower Re should damp faster: Re=50 ratio %g vs Re=5000 ratio %g", lowRe, highRe)
	}
}

func TestViscousStability(t *testing.T) {
	// Strong viscosity plus the implicit augmentation must stay stable
	// at the default (inviscid-sized) time step.
	cfg := viscousConfig(10)
	s := newCache(t, cfg, CacheOptions{})
	InitPulse(s, 0.05)
	for i := 0; i < 40; i++ {
		st := s.Step()
		if math.IsNaN(st.Residual) || math.IsInf(st.Residual, 0) {
			t.Fatalf("step %d: viscous run blew up", i)
		}
	}
}
