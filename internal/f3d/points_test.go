package f3d

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/euler"
	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/parloop"
)

// scalarSolver is the oracle: NewReferenceSolver — serial scalar
// kernels, no point records.
func scalarSolver(t *testing.T, cfg Config) *CacheSolver {
	t.Helper()
	s, err := NewReferenceSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if s.zones[0].pts != nil {
		t.Fatal("the scalar reference allocated point records")
	}
	return s
}

// stepBothBitwise advances got and want n steps and requires the step
// statistics, and at the end every conserved value, to agree bit for bit.
func stepBothBitwise(t *testing.T, name string, got, want *CacheSolver, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		g, w := got.Step(), want.Step()
		if math.Float64bits(g.Residual) != math.Float64bits(w.Residual) ||
			math.Float64bits(g.MaxDelta) != math.Float64bits(w.MaxDelta) {
			t.Fatalf("%s step %d: residual %x / max delta %x, reference %x / %x",
				name, i, g.Residual, g.MaxDelta, w.Residual, w.MaxDelta)
		}
	}
	for zi, zs := range got.Zones() {
		ref := want.Zones()[zi].Q.Vec
		vecsBitEqual(t, fmt.Sprintf("%s: zone %d", name, zi), zs.Q.Vec, ref, len(ref))
	}
}

// TestFillPointsCoversExactlyWhatLinesRead: after the J/K pass has
// entered every interior plane, each point with at most one index on a
// face holds Q's decomposition and each edge and corner point — read by
// no line — was never passed to DecomposeInto (ρ = 0 there would have
// panicked) and still holds the zero record.
func TestFillPointsCoversExactlyWhatLinesRead(t *testing.T) {
	for _, dims := range [][3]int{{3, 3, 3}, {6, 5, 4}, {4, 7, 3}} {
		z := grid.NewZone("z", dims[0], dims[1], dims[2])
		zs := newZoneState(&z, grid.PointMajor, true)
		onFace := func(i, n int) int {
			if i == 0 || i == n-1 {
				return 1
			}
			return 0
		}
		for l := 0; l < z.LMax; l++ {
			for k := 0; k < z.KMax; k++ {
				for j := 0; j < z.JMax; j++ {
					t := float64(z.Index(j, k, l))
					u := euler.Prim{Rho: 1 + 0.1*math.Sin(t), U: 0.3 * math.Cos(t), V: 0.1, W: -0.2 * math.Sin(2*t), P: 1 + 0.1*math.Cos(3*t)}.Cons()
					if onFace(j, z.JMax)+onFace(k, z.KMax)+onFace(l, z.LMax) >= 2 {
						u = linalg.Vec5{} // ρ = 0
					}
					zs.Q.SetPoint(j, k, l, u[:])
				}
			}
		}
		for l := 1; l <= z.LMax-2; l++ {
			zs.fillPoints(l)
		}
		var u linalg.Vec5
		for l := 0; l < z.LMax; l++ {
			for k := 0; k < z.KMax; k++ {
				for j := 0; j < z.JMax; j++ {
					want := euler.PointState{}
					if onFace(j, z.JMax)+onFace(k, z.KMax)+onFace(l, z.LMax) < 2 {
						zs.Q.Point(j, k, l, u[:])
						euler.DecomposeInto(&want, &u)
					}
					if got := zs.pts[z.Index(j, k, l)]; got != want {
						t.Fatalf("%v point (%d,%d,%d): record %+v, want %+v", dims, j, k, l, got, want)
					}
				}
			}
		}
	}
}

// TestEdgeStateNeverDecomposed: received planes with ρ = 0 on zone edges
// and a corner of both J faces — points no line reads — must leave the
// served step bitwise equal to the scalar reference, not become a new
// panic site.
func TestEdgeStateNeverDecomposed(t *testing.T) {
	cfg := testConfig(9, 8, 7)
	cfg.Interfaces = []Interface{{Left: Remote, Right: 0}, {Left: 0, Right: Remote}}
	team := parloop.NewTeam(2)
	defer team.Close()
	ref := scalarSolver(t, cfg)
	srv := newCache(t, cfg, CacheOptions{Team: team})
	InitPulse(ref, 0.02)
	InitPulse(srv, 0.02)
	z := srv.Zones()[0].Zone
	zero := func(p *BoundaryPlane, k, l int) {
		clear(p.Data[(l*z.KMax+k)*euler.NC:][:euler.NC])
	}
	for i := 0; i < 3; i++ {
		// Interior planes of the oracle as the J-min and J-max planes.
		pMin, err := CapturePlane(ref, 0, FaceJMax)
		if err != nil {
			t.Fatal(err)
		}
		pMax, err := CapturePlane(ref, 0, FaceJMin)
		if err != nil {
			t.Fatal(err)
		}
		pMin, pMax = pMin.RetargetTo(0), pMax.RetargetTo(0)
		zero(&pMin, 3, 0)        // edge j=0, l=0
		zero(&pMax, 0, 2)        // edge j max, k=0
		zero(&pMax, z.KMax-1, 0) // corner
		for _, s := range []*CacheSolver{ref, srv} {
			for _, p := range []*BoundaryPlane{&pMin, &pMax} {
				if err := s.Receive(p); err != nil {
					t.Fatal(err)
				}
			}
		}
		stepBothBitwise(t, "edge rho=0", srv, ref, 1)
	}
}

// TestEmptySlabsFillEveryPlaneOnce: a team larger than the number of
// interior L planes leaves workers with empty slabs; the fill rides the
// slab partition, so an empty slab must own no plane and the face planes
// must still be filled by the owners of planes 1 and LMax−2. Under -race
// this also shows no two workers write one plane and no reader runs
// ahead of the fill.
func TestEmptySlabsFillEveryPlaneOnce(t *testing.T) {
	cfg := testConfig(9, 8, 7) // 5 interior L planes
	team := parloop.NewTeam(8)
	defer team.Close()
	for name, shc := range map[string]*StepShape{
		"default": mergedCfg(false), "merged": mergedCfg(true), "parallel-bc": {RHS: true, SweepJK: true, SweepL: true, BC: true},
	} {
		ref := scalarSolver(t, cfg)
		s := newCache(t, cfg, CacheOptions{Team: team, Shape: shc})
		InitPulse(ref, 0.02)
		InitPulse(s, 0.02)
		stepBothBitwise(t, name, s, ref, 4)
	}
}

// TestPointRecordsNeverStale pins the records' validity window: they are
// rebuilt from Q before their first read in every step, so whatever
// rewrites Q between steps — restoring an older checkpoint, a boundary
// plane arriving through Receive, a re-initialisation — is seen by the
// next step exactly as the record-free scalar reference sees it.
func TestPointRecordsNeverStale(t *testing.T) {
	cfg := testConfig(9, 8, 7)
	team := parloop.NewTeam(2)
	defer team.Close()

	t.Run("restore", func(t *testing.T) {
		ref := scalarSolver(t, cfg)
		srv := newCache(t, cfg, CacheOptions{Team: team})
		InitPulse(ref, 0.03)
		InitPulse(srv, 0.03)
		stepBothBitwise(t, "before checkpoint", srv, ref, 1)
		ckpt, err := AppendZoneState(nil, srv, 0)
		if err != nil {
			t.Fatal(err)
		}
		stepBothBitwise(t, "past checkpoint", srv, ref, 3)
		for _, s := range []*CacheSolver{ref, srv} {
			if err := RestoreZoneState(s, 0, ckpt); err != nil {
				t.Fatal(err)
			}
		}
		stepBothBitwise(t, "after restore", srv, ref, 3)
	})

	t.Run("boundary-plane", func(t *testing.T) {
		// A donor run supplies planes that differ every step; both solvers
		// receive step i's plane on their Remote J-min face for step i.
		donor := newCache(t, cfg, CacheOptions{})
		InitPulse(donor, 0.05)
		recv := cfg
		recv.Interfaces = []Interface{{Left: Remote, Right: 0}}
		ref := scalarSolver(t, recv)
		srv := newCache(t, recv, CacheOptions{Team: team})
		InitPulse(ref, 0.02)
		InitPulse(srv, 0.02)
		for i := 0; i < 4; i++ {
			donor.Step()
			p, err := CapturePlane(donor, 0, FaceJMax)
			if err != nil {
				t.Fatal(err)
			}
			p = p.RetargetTo(0)
			for _, s := range []*CacheSolver{ref, srv} {
				if err := s.Receive(&p); err != nil {
					t.Fatal(err)
				}
			}
			stepBothBitwise(t, "plane", srv, ref, 1)
		}
	})

	t.Run("reinit", func(t *testing.T) {
		ref := scalarSolver(t, cfg)
		srv := newCache(t, cfg, CacheOptions{Team: team})
		InitPulse(ref, 0.03)
		InitPulse(srv, 0.03)
		stepBothBitwise(t, "first run", srv, ref, 3)
		InitPulse(ref, 0.01)
		InitPulse(srv, 0.01)
		stepBothBitwise(t, "after InitPulse", srv, ref, 3)
	})
}
