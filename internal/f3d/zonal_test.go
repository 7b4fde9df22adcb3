package f3d

import (
	"math"
	"testing"

	"repro/internal/euler"
	"repro/internal/grid"
	"repro/internal/parloop"
)

// zonalConfig builds a split-zone configuration plus the matching
// single-zone configuration it should approximate.
func zonalConfig(t *testing.T) (split, single Config) {
	t.Helper()
	const n, kmax, lmax, at = 21, 9, 8, 10
	c, ifaces := SplitAlongJ("z", n, kmax, lmax, at)
	split = DefaultConfig(c)
	split.Interfaces = ifaces
	single = DefaultConfig(grid.Single(n, kmax, lmax))
	// Same time step for comparability (DefaultConfig derives dt from
	// the finest spacing, which matches here, but pin it anyway).
	split.Dt = single.Dt
	return split, single
}

// initPhysicalPulse sets a pulse as a function of the physical J index,
// so the split and single configurations hold the same initial field.
func initPhysicalPulse(s Solver, jOffsets []int, nPhys int, amp float64) {
	initPhysicalPulseAt(s, jOffsets, float64(nPhys-1)/2, amp)
}

func initPhysicalPulseAt(s Solver, jOffsets []int, cj float64, amp float64) {
	cfg := s.Config()
	InitUniform(s)
	for zi, zs := range s.Zones() {
		z := zs.Zone
		off := jOffsets[zi]
		ck := float64(z.KMax-1) / 2
		cl := float64(z.LMax-1) / 2
		for l := 0; l < z.LMax; l++ {
			for k := 0; k < z.KMax; k++ {
				for j := 0; j < z.JMax; j++ {
					dj := float64(j+off) - cj
					dk := float64(k) - ck
					dl := float64(l) - cl
					g := amp * math.Exp(-(dj*dj+dk*dk+dl*dl)/9)
					p := euler.Prim{
						Rho: cfg.Freestream.Rho * (1 + g),
						U:   cfg.Freestream.U, V: cfg.Freestream.V, W: cfg.Freestream.W,
						P: cfg.Freestream.P * (1 + g),
					}
					u := p.Cons()
					zs.Q.SetPoint(j, k, l, u[:])
				}
			}
		}
	}
}

func TestSplitAlongJGeometry(t *testing.T) {
	c, ifaces := SplitAlongJ("z", 21, 9, 8, 10)
	if len(c.Zones) != 2 || len(ifaces) != 1 {
		t.Fatalf("unexpected split: %d zones, %d interfaces", len(c.Zones), len(ifaces))
	}
	left, right := c.Zones[0], c.Zones[1]
	if left.JMax != 12 || right.JMax != 11 {
		t.Errorf("split dims: left J=%d right J=%d, want 12 and 11", left.JMax, right.JMax)
	}
	// Two-point overlap: left covers 0..11, right covers 10..20 →
	// total coverage = 21 physical points.
	if left.JMax+right.JMax-2 != 21 {
		t.Errorf("overlap arithmetic wrong: %d+%d-2 != 21", left.JMax, right.JMax)
	}
	// Spacing inherited from the parent grid, not renormalized.
	parent := grid.NewZone("p", 21, 9, 8)
	if left.DJ != parent.DJ || right.DJ != parent.DJ {
		t.Errorf("split zones renormalized spacing: %g, %g vs %g", left.DJ, right.DJ, parent.DJ)
	}
	for _, bad := range []int{1, 18} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("split=%d should panic", bad)
				}
			}()
			SplitAlongJ("z", 21, 9, 8, bad)
		}()
	}
}

func TestInterfaceValidation(t *testing.T) {
	c, _ := SplitAlongJ("z", 21, 9, 8, 10)
	cfg := DefaultConfig(c)
	cfg.Interfaces = []Interface{{Left: 0, Right: 5}}
	if err := cfg.Validate(); err == nil {
		t.Error("out-of-range zone accepted")
	}
	cfg.Interfaces = []Interface{{Left: 1, Right: 1}}
	if err := cfg.Validate(); err == nil {
		t.Error("self-coupling accepted")
	}
	// Face mismatch.
	bad := grid.Case{Zones: []grid.Zone{grid.NewZone("a", 8, 9, 8), grid.NewZone("b", 8, 7, 8)}}
	cfgBad := DefaultConfig(bad)
	cfgBad.Interfaces = []Interface{{Left: 0, Right: 1}}
	if err := cfgBad.Validate(); err == nil {
		t.Error("face mismatch accepted")
	}
}

func TestZonalUniformFlowPreservedExactly(t *testing.T) {
	split, _ := zonalConfig(t)
	for _, mk := range []struct {
		name string
		s    Solver
	}{
		{"cache", newCache(t, split, CacheOptions{})},
		{"vector", newVector(t, split)},
		{"block", newBlock(t, split, CacheOptions{})},
	} {
		InitUniform(mk.s)
		for i := 0; i < 4; i++ {
			st := mk.s.Step()
			if st.Residual != 0 || st.MaxDelta != 0 {
				t.Errorf("%s: zonal uniform flow drifted at step %d", mk.name, i)
				break
			}
		}
	}
}

func TestZonalVariantsAgreeBitwise(t *testing.T) {
	split, _ := zonalConfig(t)
	cs := newCache(t, split, CacheOptions{})
	vs := newVector(t, split)
	offsets := []int{0, 10}
	initPhysicalPulse(cs, offsets, 21, 0.03)
	initPhysicalPulse(vs, offsets, 21, 0.03)
	for i := 0; i < 6; i++ {
		sc := cs.Step()
		sv := vs.Step()
		if sc.Residual != sv.Residual {
			t.Fatalf("step %d: zonal residuals differ", i)
		}
	}
	if d := MaxPointwiseDiff(cs, vs); d != 0 {
		t.Fatalf("zonal variants differ by %g", d)
	}
}

func TestZonalSerialParallelAgreeBitwise(t *testing.T) {
	split, _ := zonalConfig(t)
	serial := newCache(t, split, CacheOptions{})
	team := parloop.NewTeam(3)
	defer team.Close()
	offsets := []int{0, 10}
	for _, merged := range []bool{false, true} {
		par := newCache(t, split, CacheOptions{Team: team, Shape: mergedCfg(merged)})
		initPhysicalPulse(serial, offsets, 21, 0.03)
		initPhysicalPulse(par, offsets, 21, 0.03)
		for i := 0; i < 5; i++ {
			serial.Step()
			par.Step()
		}
		if d := MaxPointwiseDiff(serial, par); d != 0 {
			t.Fatalf("merged=%v: zonal serial/parallel differ by %g", merged, d)
		}
	}
}

func TestZonalApproximatesSingleZone(t *testing.T) {
	// The split grid with explicit interface exchange must track the
	// single-zone solution closely (the interface is time-lagged and
	// explicit, so agreement is approximate, not bitwise).
	split, single := zonalConfig(t)
	ss := newCache(t, split, CacheOptions{})
	us := newCache(t, single, CacheOptions{})
	// Center the pulse inside the left zone; it still radiates across
	// the interface at j=10..11 but is not pathologically centered on it.
	initPhysicalPulseAt(ss, []int{0, 10}, 6, 0.03)
	initPhysicalPulseAt(us, []int{0}, 6, 0.03)
	offsets := []int{0, 10}
	deviation := func() float64 {
		var worst float64
		uz := us.Zones()[0]
		var a, b [euler.NC]float64
		for zi, zs := range ss.Zones() {
			z := zs.Zone
			for l := 0; l < z.LMax; l++ {
				for k := 0; k < z.KMax; k++ {
					for j := 0; j < z.JMax; j++ {
						zs.Q.Point(j, k, l, a[:])
						uz.Q.Point(j+offsets[zi], k, l, b[:])
						for c := 0; c < euler.NC; c++ {
							if d := math.Abs(a[c] - b[c]); d > worst {
								worst = d
							}
						}
					}
				}
			}
		}
		return worst
	}
	for i := 0; i < 10; i++ {
		ss.Step()
		us.Step()
	}
	early := deviation()
	// The interface is explicit and time-lagged, and the near-interface
	// points use the boundary-form dissipation stencil: deviation is
	// bounded by a fraction of the pulse amplitude, not bitwise.
	if early > 1e-2 {
		t.Errorf("zonal solution deviates from single-zone by %g (want < 1e-2)", early)
	}
	if early == 0 {
		t.Error("zonal and single-zone runs identical — interface coupling suspiciously exact")
	}
	// Both converge to the same freestream steady state, so the
	// deviation dies out with the transient.
	for i := 0; i < 60; i++ {
		ss.Step()
		us.Step()
	}
	late := deviation()
	if late > early/3 {
		t.Errorf("interface-coupling deviation did not decay: %g -> %g", early, late)
	}
}

func TestZonalPulseDecays(t *testing.T) {
	split, _ := zonalConfig(t)
	s := newCache(t, split, CacheOptions{})
	initPhysicalPulse(s, []int{0, 10}, 21, 0.05)
	first := s.Step()
	var last StepStats
	for i := 0; i < 50; i++ {
		last = s.Step()
	}
	if last.Residual > first.Residual/5 {
		t.Errorf("zonal residual did not decay: %g -> %g", first.Residual, last.Residual)
	}
}
