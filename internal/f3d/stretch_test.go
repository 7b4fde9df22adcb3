package f3d

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/parloop"
)

func stretchedConfig() Config {
	z := grid.StretchedZone("bl", 11, 10, 12, 1.2, 0, 1.8)
	cfg := DefaultConfig(grid.Case{Name: "stretched", Zones: []grid.Zone{z}})
	return cfg
}

func TestStretchCoords(t *testing.T) {
	x := grid.StretchCoords(21, 2)
	if x[0] != 0 || x[20] != 1 {
		t.Fatalf("endpoints not pinned: %g, %g", x[0], x[20])
	}
	// Strictly increasing; clustered toward both ends (first gap well
	// below the center gap); symmetric.
	for i := 1; i < len(x); i++ {
		if x[i] <= x[i-1] {
			t.Fatalf("coords not increasing at %d", i)
		}
	}
	first := x[1] - x[0]
	center := x[11] - x[10]
	if first >= center/2 {
		t.Errorf("no clustering: first gap %g vs center gap %g", first, center)
	}
	for i := range x {
		if math.Abs(x[i]+x[len(x)-1-i]-1) > 1e-12 {
			t.Errorf("coords not symmetric at %d", i)
		}
	}
	// beta = 0 is uniform.
	u := grid.StretchCoords(5, 0)
	for i, v := range u {
		if math.Abs(v-float64(i)/4) > 1e-15 {
			t.Errorf("beta=0 not uniform: %v", u)
		}
	}
}

func TestStretchedZoneMetadata(t *testing.T) {
	z := grid.StretchedZone("z", 9, 8, 7, 1.5, 0, 2)
	if !z.Stretched() {
		t.Fatal("zone should report stretched")
	}
	if z.XK != nil {
		t.Error("K direction should remain uniform")
	}
	// DJ is the minimum local spacing — below the uniform value.
	if z.DJ >= 1.0/8 {
		t.Errorf("stretched DJ = %g, should be below uniform %g", z.DJ, 1.0/8)
	}
	uz5 := grid.NewZone("u", 5, 5, 5)
	if uz5.Stretched() {
		t.Error("uniform zone reports stretched")
	}
	// Coords materialize for uniform directions.
	ck := z.CoordsK()
	if len(ck) != 8 || math.Abs(ck[1]-1.0/7) > 1e-15 {
		t.Errorf("CoordsK wrong: %v", ck)
	}
}

func TestStretchedUniformFlowPreservedExactly(t *testing.T) {
	cfg := stretchedConfig()
	for _, mk := range []struct {
		name string
		s    Solver
	}{
		{"cache", newCache(t, cfg, CacheOptions{})},
		{"vector", newVector(t, cfg)},
		{"block", newBlock(t, cfg, CacheOptions{})},
	} {
		InitUniform(mk.s)
		for i := 0; i < 4; i++ {
			st := mk.s.Step()
			if st.Residual != 0 || st.MaxDelta != 0 {
				t.Errorf("%s: stretched uniform flow drifted at step %d (res %g)", mk.name, i, st.Residual)
				break
			}
		}
	}
}

func TestStretchedVariantsAgreeBitwise(t *testing.T) {
	cfg := stretchedConfig()
	cfg.Viscous, cfg.Re = true, 400
	cs := newCache(t, cfg, CacheOptions{})
	vs := newVector(t, cfg)
	InitPulse(cs, 0.02)
	InitPulse(vs, 0.02)
	for i := 0; i < 6; i++ {
		a := cs.Step()
		b := vs.Step()
		if a.Residual != b.Residual {
			t.Fatalf("step %d: stretched residuals differ", i)
		}
	}
	if d := MaxPointwiseDiff(cs, vs); d != 0 {
		t.Fatalf("stretched variants differ by %g", d)
	}
}

func TestStretchedSerialParallelAgreeBitwise(t *testing.T) {
	cfg := stretchedConfig()
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
		t.Fatalf("stretched serial/parallel differ by %g", d)
	}
}

func TestStretchedPulseDecays(t *testing.T) {
	cfg := stretchedConfig()
	s := newCache(t, cfg, CacheOptions{})
	InitPulse(s, 0.04)
	first := s.Step()
	var last StepStats
	for i := 0; i < 80; i++ {
		last = s.Step()
		if math.IsNaN(last.Residual) {
			t.Fatalf("stretched run blew up at step %d", i)
		}
	}
	if last.Residual > first.Residual/5 {
		t.Errorf("stretched residual did not decay: %g -> %g", first.Residual, last.Residual)
	}
}

func TestStretchedMatchesUniformWhenCoordsUniform(t *testing.T) {
	// A zone whose coordinate arrays encode uniform spacing must produce
	// (nearly) the uniform-path results: the expressions differ only by
	// reciprocal-vs-division rounding.
	const n = 10
	uz := grid.NewZone("u", n, 9, 8)
	sz := uz
	sz.XJ = grid.StretchCoords(n, 0) // uniform coords through the geom path
	uCfg := DefaultConfig(grid.Case{Name: "u", Zones: []grid.Zone{uz}})
	sCfg := DefaultConfig(grid.Case{Name: "s", Zones: []grid.Zone{sz}})
	sCfg.Dt = uCfg.Dt
	us := newCache(t, uCfg, CacheOptions{})
	ss := newCache(t, sCfg, CacheOptions{})
	InitPulse(us, 0.02)
	InitPulse(ss, 0.02)
	for i := 0; i < 5; i++ {
		us.Step()
		ss.Step()
	}
	if d := MaxPointwiseDiff(us, ss); d > 1e-11 {
		t.Errorf("uniform-coded stretch path deviates from uniform path by %g", d)
	}
}

func TestStretchedInterfaceRejected(t *testing.T) {
	z1 := grid.StretchedZone("a", 8, 8, 8, 1, 0, 0)
	z2 := grid.StretchedZone("b", 8, 8, 8, 1, 0, 0)
	cfg := DefaultConfig(grid.Case{Zones: []grid.Zone{z1, z2}})
	cfg.Interfaces = []Interface{{Left: 0, Right: 1}}
	if err := cfg.Validate(); err == nil {
		t.Error("stretched zones at an interface should be rejected")
	}
}

func TestStretchedViscousShearDecay(t *testing.T) {
	// The viscous terms on a stretched L direction (boundary-layer
	// clustering) still damp a shear profile.
	z := grid.StretchedZone("bl", 9, 9, 13, 0, 0, 2)
	cfg := DefaultConfig(grid.Case{Name: "blv", Zones: []grid.Zone{z}})
	cfg.Viscous, cfg.Re = true, 100
	s := newCache(t, cfg, CacheOptions{})
	initShear(s, 0.05)
	e0 := shearEnergy(s)
	for i := 0; i < 25; i++ {
		st := s.Step()
		if math.IsNaN(st.Residual) {
			t.Fatalf("stretched viscous run blew up at step %d", i)
		}
	}
	if e1 := shearEnergy(s); e1 >= e0 {
		t.Errorf("shear energy did not decay on stretched grid: %g -> %g", e0, e1)
	}
}
