// Boundarylayer is the "real CFD" demo: thin-layer Navier–Stokes flow
// over a no-slip flat plate on a wall-clustered (stretched) grid — the
// configuration F3D-class codes exist for. It combines every extension
// of the reproduction at once: viscous terms, per-face wall boundary
// conditions, stretched spacing, and loop-level parallelism, and prints
// the developing velocity profile.
//
// Run:
//
//	go run ./examples/boundarylayer
package main

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/euler"
	"repro/internal/f3d"
	"repro/internal/grid"
	"repro/internal/parloop"
)

func main() {
	// Wall-normal direction L, clustered hard at the wall (one-sided
	// stretching: all the resolution goes where the boundary layer is).
	z := grid.NewZone("plate", 15, 11, 25)
	z.XL = grid.StretchCoordsOneSided(z.LMax, 2.2)
	z.DL = z.XL[1] - z.XL[0]
	cfg := f3d.DefaultConfig(grid.Case{Name: "plate", Zones: []grid.Zone{z}})
	cfg.Freestream = euler.Prim{Rho: 1, U: 0.5, V: 0, W: 0, P: 1}
	cfg.Dt = f3d.EstimateDt(&cfg, 1.5)
	cfg.Viscous, cfg.Re = true, 500
	cfg.FaceBC = map[f3d.Face]f3d.BCKind{
		f3d.FaceLMin: f3d.BCNoSlipWall, // the plate
		f3d.FaceLMax: f3d.BCFreestream, // far field
	}

	team := parloop.NewTeam(runtime.GOMAXPROCS(0))
	defer team.Close()
	s, err := f3d.NewCacheSolver(cfg, f3d.CacheOptions{Team: team})
	if err != nil {
		panic(err)
	}
	defer s.Close()
	f3d.InitUniform(s)

	fmt.Printf("flat plate: %v, Re=%g, dt=%.2e, no-slip wall at l=0, %d workers\n\n",
		z, cfg.Re, cfg.Dt, team.Workers())

	coords := z.CoordsL()
	printProfile := func(step int) {
		zs := s.Zones()[0]
		j, k := z.JMax/2, z.KMax/2
		var buf [euler.NC]float64
		fmt.Printf("u/U∞ profile after %d steps (z = wall-normal coordinate):\n", step)
		for l := 0; l < z.LMax; l += 2 {
			zs.Q.Point(j, k, l, buf[:])
			u := buf[1] / buf[0] / cfg.Freestream.U
			bar := int(u*50 + 0.5)
			if bar < 0 {
				bar = 0
			}
			fmt.Printf("  z=%6.4f |%-50s| %.3f\n", coords[l], strings.Repeat("#", bar), u)
		}
		fmt.Println()
	}

	steps := 0
	for _, upTo := range []int{40, 160} {
		for steps < upTo {
			s.Step()
			steps++
		}
		printProfile(steps)
	}

	// The boundary-layer thickness: height where u reaches 99% of U∞.
	zs := s.Zones()[0]
	var buf [euler.NC]float64
	for l := 0; l < z.LMax; l++ {
		zs.Q.Point(z.JMax/2, z.KMax/2, l, buf[:])
		if buf[1]/buf[0] >= 0.99*cfg.Freestream.U {
			fmt.Printf("δ99 ≈ %.4f (grid spacing at wall: %.5f — the stretched grid puts\n",
				coords[l], coords[1]-coords[0])
			fmt.Println("resolution where the gradients are, the reason real F3D grids are clustered)")
			break
		}
	}
}
