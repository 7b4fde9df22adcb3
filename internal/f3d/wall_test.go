package f3d

import (
	"math"
	"testing"

	"repro/internal/euler"
	"repro/internal/grid"
	"repro/internal/parloop"
)

// wallConfig builds a channel-like configuration: slip walls at the L
// faces, freestream elsewhere, with the freestream aligned so the wall
// is a true steady state (no velocity normal to the walls).
func wallConfig() Config {
	cfg := DefaultConfig(grid.Single(11, 9, 10))
	cfg.Freestream = euler.Prim{Rho: 1, U: 0.5, V: 0.05, W: 0, P: 1}
	cfg.Dt = EstimateDt(&cfg, 2.0)
	cfg.FaceBC = map[Face]BCKind{
		FaceLMin: BCSlipWall,
		FaceLMax: BCSlipWall,
	}
	return cfg
}

func TestSlipWallPreservesTangentialFreestream(t *testing.T) {
	// Freestream with zero wall-normal velocity is an exact fixed point
	// of the slip-wall treatment: the boundary routine reproduces the
	// interior state bitwise (removing a zero normal momentum changes
	// nothing).
	cfg := wallConfig()
	s := newCache(t, cfg, CacheOptions{})
	InitUniform(s)
	for i := 0; i < 5; i++ {
		st := s.Step()
		if st.Residual != 0 || st.MaxDelta != 0 {
			t.Fatalf("step %d: tangential freestream drifted at slip wall (res %g)", i, st.Residual)
		}
	}
}

func TestSlipWallZeroesNormalVelocity(t *testing.T) {
	// With wall-normal freestream velocity, the wall must hold W = 0
	// while preserving the donor's pressure.
	cfg := wallConfig()
	cfg.Freestream.W = 0.2
	cfg.Dt = EstimateDt(&cfg, 2.0)
	s := newCache(t, cfg, CacheOptions{})
	InitUniform(s)
	s.Step()
	zs := s.Zones()[0]
	z := zs.Zone
	var buf [euler.NC]float64
	for k := 1; k < z.KMax-1; k++ {
		for j := 1; j < z.JMax-1; j++ {
			zs.Q.Point(j, k, 0, buf[:])
			if buf[3] != 0 {
				t.Fatalf("wall point (%d,%d,0) has normal momentum %g", j, k, buf[3])
			}
			p := euler.PrimFromCons(buf)
			if p.P <= 0 {
				t.Fatalf("wall point (%d,%d,0) has non-physical pressure %g", j, k, p.P)
			}
		}
	}
}

func TestNoSlipWallZeroesAllVelocity(t *testing.T) {
	cfg := wallConfig()
	cfg.FaceBC[FaceLMin] = BCNoSlipWall
	cfg.Viscous, cfg.Re = true, 200
	s := newCache(t, cfg, CacheOptions{})
	InitUniform(s)
	s.Step()
	zs := s.Zones()[0]
	z := zs.Zone
	var buf [euler.NC]float64
	for k := 1; k < z.KMax-1; k++ {
		for j := 1; j < z.JMax-1; j++ {
			zs.Q.Point(j, k, 0, buf[:])
			if buf[1] != 0 || buf[2] != 0 || buf[3] != 0 {
				t.Fatalf("no-slip wall point (%d,%d,0) has momentum (%g,%g,%g)", j, k, buf[1], buf[2], buf[3])
			}
			p := euler.PrimFromCons(buf)
			if p.P <= 0 || p.Rho <= 0 {
				t.Fatalf("no-slip wall point non-physical: %+v", p)
			}
		}
	}
}

func TestBoundaryLayerDevelops(t *testing.T) {
	// Flat plate: no-slip wall at L-min with viscosity and a stretched L
	// grid clustered at the wall. After some steps a momentum deficit —
	// a boundary layer — exists near the wall: u rises monotonically-ish
	// from 0 at the wall toward the freestream.
	z := grid.StretchedZone("plate", 11, 9, 17, 0, 0, 1.8)
	cfg := DefaultConfig(grid.Case{Name: "plate", Zones: []grid.Zone{z}})
	cfg.Freestream = euler.Prim{Rho: 1, U: 0.5, V: 0, W: 0, P: 1}
	cfg.Dt = EstimateDt(&cfg, 1.5)
	cfg.Viscous, cfg.Re = true, 300
	cfg.FaceBC = map[Face]BCKind{
		FaceLMin: BCNoSlipWall,
		FaceLMax: BCFreestream,
	}
	s := newCache(t, cfg, CacheOptions{})
	InitUniform(s)
	for i := 0; i < 120; i++ {
		st := s.Step()
		if math.IsNaN(st.Residual) {
			t.Fatalf("boundary-layer run blew up at step %d", i)
		}
	}
	zs := s.Zones()[0]
	j, k := z.JMax/2, z.KMax/2
	var buf [euler.NC]float64
	u := make([]float64, z.LMax)
	for l := 0; l < z.LMax; l++ {
		zs.Q.Point(j, k, l, buf[:])
		u[l] = buf[1] / buf[0]
	}
	if u[0] != 0 {
		t.Fatalf("wall velocity %g, want 0", u[0])
	}
	// Deficit near the wall, recovery toward freestream aloft.
	if u[1] >= 0.9*cfg.Freestream.U {
		t.Errorf("no momentum deficit near wall: u[1] = %g", u[1])
	}
	if u[z.LMax-2] < 0.8*cfg.Freestream.U {
		t.Errorf("no recovery toward freestream: u[top-1] = %g", u[z.LMax-2])
	}
	if !(u[1] < u[z.LMax/2]) {
		t.Errorf("profile not increasing away from wall: u[1]=%g, u[mid]=%g", u[1], u[z.LMax/2])
	}
}

func TestWallBCVariantsAgreeBitwise(t *testing.T) {
	cfg := wallConfig()
	cfg.FaceBC[FaceLMin] = BCNoSlipWall
	cfg.Viscous, cfg.Re = true, 300
	cs := newCache(t, cfg, CacheOptions{})
	vs := newVector(t, cfg)
	team := parloop.NewTeam(3)
	defer team.Close()
	ps := newCache(t, cfg, CacheOptions{Team: team, Shape: &StepShape{RHS: true, SweepJK: true, SweepL: true, BC: true}})
	InitUniform(cs)
	InitUniform(vs)
	InitUniform(ps)
	for i := 0; i < 5; i++ {
		a := cs.Step()
		b := vs.Step()
		c := ps.Step()
		if a.Residual != b.Residual || a.Residual != c.Residual {
			t.Fatalf("step %d: wall-BC residuals diverge", i)
		}
	}
	if d := MaxPointwiseDiff(cs, vs); d != 0 {
		t.Fatalf("wall-BC vector/cache differ by %g", d)
	}
	if d := MaxPointwiseDiff(cs, ps); d != 0 {
		t.Fatalf("wall-BC serial/parallel(BC) differ by %g", d)
	}
}

func TestFaceBCValidation(t *testing.T) {
	cfg := wallConfig()
	cfg.FaceBC[Face(17)] = BCFreestream
	if err := cfg.Validate(); err == nil {
		t.Error("unknown face accepted")
	}
	cfg = wallConfig()
	cfg.FaceBC[FaceJMin] = BCKind(42)
	if err := cfg.Validate(); err == nil {
		t.Error("unknown face BC kind accepted")
	}
	if FaceLMin.String() != "l-min" || Face(9).String() != "Face(9)" {
		t.Error("Face.String wrong")
	}
	if BCSlipWall.String() != "slip-wall" || BCNoSlipWall.String() != "no-slip-wall" {
		t.Error("wall BCKind strings wrong")
	}
}
