// Package f3d implements the CFD substrate of the reproduction: a 3-D
// implicit compressible-flow solver in the mold of F3D/ARC3D — central
// differencing with scalar artificial dissipation and a diagonalized
// Beam–Warming approximate-factorization implicit time step — on
// multi-zone structured grids.
//
// The package provides the same algorithm in the two code shapes the
// paper contrasts:
//
//   - VectorSolver: the "vectorizable original". Sweeps process one
//     whole plane of the zone at a time with plane-sized scratch arrays
//     and inner loops running across the plane — long vectors, huge
//     scratch (the arrays that "were unlikely to fit into even the
//     largest caches", §4).
//   - CacheSolver: the RISC-tuned rewrite. Sweeps process one pencil at
//     a time with pencil-sized scratch that locks into cache, loops
//     reordered for unit stride, and outer loops parallelized with
//     parloop teams — the paper's entire §4 program.
//
// Both variants execute identical arithmetic per grid point, so their
// results agree bitwise, which is how the paper's requirement of
// parallelization "without introducing any changes to the algorithm or
// the convergence properties" is made testable.
package f3d

import (
	"fmt"

	"repro/internal/euler"
	"repro/internal/grid"
)

// BCKind selects the boundary treatment applied to all six faces of
// every zone. Boundary points are held by the boundary routine and
// excluded from the implicit update (explicit boundary conditions, the
// standard arrangement in ARC3D-class codes and the reason the paper's
// boundary routines are cheap, hard-to-amortize loops).
type BCKind int

const (
	// BCFreestream pins boundary points to the freestream state.
	BCFreestream BCKind = iota
	// BCExtrapolate copies the adjacent interior point outward
	// (zeroth-order extrapolation).
	BCExtrapolate
	// BCSlipWall reflects the adjacent interior state with zero velocity
	// normal to the face (inviscid wall): density, pressure and
	// tangential velocity are carried over; the normal kinetic energy is
	// removed from the total energy.
	BCSlipWall
	// BCNoSlipWall enforces zero velocity at the face (viscous wall,
	// adiabatic): density and internal energy are carried over from the
	// interior, all momentum is dropped.
	BCNoSlipWall
)

// String implements fmt.Stringer.
func (b BCKind) String() string {
	names := [...]string{
		"freestream", "extrapolate", "slip-wall", "no-slip-wall",
	}
	if b >= 0 && int(b) < len(names) {
		return names[b]
	}
	return fmt.Sprintf("BCKind(%d)", int(b))
}

// Face identifies one of a zone's six boundary faces.
type Face int

const (
	FaceJMin Face = iota
	FaceJMax
	FaceKMin
	FaceKMax
	FaceLMin
	FaceLMax
	numFaces
)

// String implements fmt.Stringer.
func (f Face) String() string {
	names := [...]string{
		"j-min", "j-max", "k-min", "k-max", "l-min", "l-max",
	}
	if f >= 0 && int(f) < len(names) {
		return names[f]
	}
	return fmt.Sprintf("Face(%d)", int(f))
}

// Config holds the numerical parameters of a solver run. The zero value
// is not valid; start from DefaultConfig.
type Config struct {
	Case grid.Case
	// Dt is the time step (the same for every zone; the implicit scheme
	// tolerates CFL numbers well above explicit limits).
	Dt float64
	// Freestream is the reference state used for initialization and
	// freestream boundaries.
	Freestream euler.Prim
	// BC selects the boundary treatment for all faces.
	BC BCKind
	// FaceBC optionally overrides the treatment per face (applied to
	// every zone). nil entries fall back to BC. At edges and corners the
	// face later in Face order wins.
	FaceBC map[Face]BCKind
	// Eps4 scales the explicit fourth-difference dissipation.
	Eps4 float64
	// Eps2B scales the explicit second-difference dissipation applied at
	// boundary-adjacent points where the five-point stencil does not fit.
	Eps2B float64
	// EpsI scales the implicit second-difference dissipation inside the
	// factored operators.
	EpsI float64
	// ImplicitDissip4 switches the implicit dissipation from second to
	// fourth difference, turning each factor's scalar systems from
	// tridiagonal into pentadiagonal (the ARC3D-style accelerator:
	// matching the explicit fourth-difference dissipation implicitly
	// permits larger stable time steps). EpsI scales it either way.
	ImplicitDissip4 bool
	// Viscous enables the thin-layer Navier–Stokes terms (viscous
	// derivatives in the L direction only, as in F3D). Re must be set
	// when Viscous is true.
	Viscous bool
	// Re is the Reynolds number for the viscous terms.
	Re float64
	// Interfaces couples zones along J with explicit two-point-overlap
	// exchange (the zonal scheme of F3D/ZNSFLOW). Coupled faces override
	// the BC treatment. A Remote side's plane arrives through Receive.
	Interfaces []Interface
}

// DefaultConfig returns a stable configuration for the given case: a
// mildly supersonic freestream aligned with J, dissipation constants in
// the usual ARC3D range, and a CFL≈2 time step.
func DefaultConfig(c grid.Case) Config {
	fs := euler.Prim{Rho: 1, U: 0.5, V: 0.05, W: 0.025, P: 1}
	cfg := Config{
		Case:       c,
		Freestream: fs,
		BC:         BCFreestream,
		Eps4:       0.02,
		Eps2B:      0.08,
		EpsI:       0.10,
	}
	cfg.Dt = EstimateDt(&cfg, 2.0)
	return cfg
}

// EstimateDt returns a time step corresponding to the given CFL number
// for the config's freestream state on the finest spacing in the case.
func EstimateDt(cfg *Config, cfl float64) float64 {
	if cfl <= 0 {
		panic(fmt.Sprintf("f3d: EstimateDt cfl must be > 0, got %g", cfl))
	}
	u := cfg.Freestream.Cons()
	minDt := 0.0
	first := true
	for i := range cfg.Case.Zones {
		z := &cfg.Case.Zones[i]
		for _, ax := range []euler.Axis{euler.X, euler.Y, euler.Z} {
			h := spacing(z, ax)
			sr := euler.SpectralRadius(ax, u)
			dt := cfl * h / sr
			if first || dt < minDt {
				minDt, first = dt, false
			}
		}
	}
	return minDt
}

// Validate checks the configuration for internal consistency.
func (cfg *Config) Validate() error {
	if len(cfg.Case.Zones) == 0 {
		return fmt.Errorf("f3d: config has no zones")
	}
	for _, z := range cfg.Case.Zones {
		if err := z.Validate(); err != nil {
			return err
		}
	}
	if cfg.Dt <= 0 {
		return fmt.Errorf("f3d: Dt must be > 0, got %g", cfg.Dt)
	}
	if cfg.Freestream.Rho <= 0 || cfg.Freestream.P <= 0 {
		return fmt.Errorf("f3d: non-physical freestream %+v", cfg.Freestream)
	}
	if cfg.Eps4 < 0 || cfg.Eps2B < 0 || cfg.EpsI < 0 {
		return fmt.Errorf("f3d: dissipation coefficients must be >= 0")
	}
	validKind := func(b BCKind) bool {
		switch b {
		case BCFreestream, BCExtrapolate, BCSlipWall, BCNoSlipWall:
			return true
		}
		return false
	}
	if !validKind(cfg.BC) {
		return fmt.Errorf("f3d: unknown BC kind %d", int(cfg.BC))
	}
	for f, b := range cfg.FaceBC {
		if f < 0 || f >= numFaces {
			return fmt.Errorf("f3d: unknown face %d", int(f))
		}
		if !validKind(b) {
			return fmt.Errorf("f3d: unknown BC kind %d on face %v", int(b), f)
		}
	}
	if cfg.Viscous && cfg.Re <= 0 {
		return fmt.Errorf("f3d: viscous run needs Re > 0, got %g", cfg.Re)
	}
	if err := checkInterfaces(cfg.Case, cfg.Interfaces); err != nil {
		return err
	}
	return nil
}

// viscRe returns the Reynolds number to thread into the kernels: the
// configured value for viscous runs, or zero (meaning inviscid) when
// the viscous terms are off.
func (cfg *Config) viscRe() float64 {
	if cfg.Viscous {
		return cfg.Re
	}
	return 0
}

// spacing returns the grid spacing of z along the axis (J↔X, K↔Y, L↔Z).
func spacing(z *grid.Zone, ax euler.Axis) float64 {
	switch ax {
	case euler.X:
		return z.DJ
	case euler.Y:
		return z.DK
	case euler.Z:
		return z.DL
	default:
		panic(fmt.Sprintf("f3d: bad axis %d", int(ax)))
	}
}
