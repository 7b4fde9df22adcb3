package f3d

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/euler"
	"repro/internal/grid"
	"repro/internal/linalg"
)

// VectorSolver is the "vectorizable original" variant: component-major
// storage (one array per conserved variable, the Fortran common-block
// layout), full-field flux and spectral-radius staging arrays (data
// streams through memory rather than being recomputed in cache), and
// implicit sweeps that process one whole plane of independent systems
// at a time with plane-sized scratch arrays — the organization the
// paper's §4 identifies as the obstacle to cache performance ("the size
// of the scratch arrays were proportional to the size of a plane of
// data").
//
// It executes arithmetic identical to CacheSolver (shared kernels, and
// a planar tridiagonal solver that matches the scalar one bitwise), so
// the two variants' solutions agree exactly; only memory behaviour and
// loop structure differ. It is serial — the original code predates the
// parallelization effort.
type VectorSolver struct {
	cfg   Config
	zones []*ZoneState

	// Full-field staging arrays (per largest zone, reused across zones):
	// three flux fields and three spectral-radius fields.
	flux  [3][]linalg.Vec5
	sigma [3][]float64

	// Plane-sized sweep scratch.
	eig []euler.Eigen       // eigensystems for one plane of systems
	w   [euler.NC][]float64 // characteristic RHS planes
	ta  [euler.NC][]float64 // tridiagonal bands, per component
	tb  [euler.NC][]float64
	tc  [euler.NC][]float64

	// links is the zonal-interface link table (nil when the case has no
	// interfaces).
	links []link

	steps int
}

// NewVectorSolver builds the vector-style solver for cfg.
func NewVectorSolver(cfg Config) (*VectorSolver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ImplicitDissip4 {
		// The plane-at-a-time organization vectorizes tridiagonal
		// recurrences across systems; the pentadiagonal implicit
		// dissipation exists only in the cache-tuned variant — an
		// instance of the vector code shape constraining the numerics.
		return nil, fmt.Errorf("f3d: VectorSolver does not support ImplicitDissip4")
	}
	if slices.ContainsFunc(cfg.Interfaces, func(f Interface) bool { return f.Left == Remote || f.Right == Remote }) {
		return nil, fmt.Errorf("f3d: VectorSolver has no Receive to feed a Remote interface side")
	}
	s := &VectorSolver{cfg: cfg, links: newLinks(cfg.Case, cfg.Interfaces)}
	maxPts, maxPlane := 0, 0
	for i := range cfg.Case.Zones {
		z := &cfg.Case.Zones[i]
		s.zones = append(s.zones, newZoneState(z, grid.ComponentMajor, false))
		maxPts = max(maxPts, z.Points())
		maxPlane = max(maxPlane, z.JMax*z.KMax, z.KMax*z.LMax, z.JMax*z.LMax)
	}
	for d := 0; d < 3; d++ {
		s.flux[d] = make([]linalg.Vec5, maxPts)
		s.sigma[d] = make([]float64, maxPts)
	}
	s.eig = make([]euler.Eigen, maxPlane)
	for c := 0; c < euler.NC; c++ {
		s.w[c] = make([]float64, maxPlane)
		s.ta[c] = make([]float64, maxPlane)
		s.tb[c] = make([]float64, maxPlane)
		s.tc[c] = make([]float64, maxPlane)
	}
	return s, nil
}

// Zones implements Solver.
func (s *VectorSolver) Zones() []*ZoneState { return s.zones }

// Config implements Solver.
func (s *VectorSolver) Config() *Config { return &s.cfg }

// Steps returns the number of time steps taken.
func (s *VectorSolver) Steps() int { return s.steps }

// Step implements Solver.
func (s *VectorSolver) Step() StepStats {
	var stats StepStats
	sumsq, n := 0.0, 0
	captureLinks(s.links, s.zones)
	for zi := range s.zones {
		zss, zn, maxd := s.stepZone(zi)
		sumsq += zss
		n += zn // the zone's interior points
		stats.MaxDelta = max(stats.MaxDelta, maxd)
	}
	if n > 0 {
		stats.Residual = math.Sqrt(sumsq / float64(n))
	}
	stats.Flops = float64(n) * FlopsPerPoint()
	s.steps++
	return stats
}

func (s *VectorSolver) stepZone(zi int) (sumsq float64, n int, maxDelta float64) {
	zs := s.zones[zi]
	zs.applyBCPlanes(&s.cfg, 0, zs.Zone.LMax)
	applyLinks(s.links, zi, zs)
	s.stageFluxes(zs)
	s.rhsFromStaged(zs)
	sumsq, n = zs.residualSumSq()
	s.sweepPlanar(zs, euler.X, false)
	s.sweepPlanar(zs, euler.Y, false)
	maxDelta = s.sweepPlanar(zs, euler.Z, true)
	return sumsq, n, maxDelta
}

// stageFluxes fills the full-field flux and spectral-radius arrays for
// all three directions in one streaming pass over the zone — the
// vector code's "compute everything, then difference" organization.
func (s *VectorSolver) stageFluxes(zs *ZoneState) {
	z := zs.Zone
	var q linalg.Vec5
	for l := 0; l < z.LMax; l++ {
		for k := 0; k < z.KMax; k++ {
			for j := 0; j < z.JMax; j++ {
				p := z.Index(j, k, l)
				zs.Q.Point(j, k, l, q[:])
				for d := 0; d < 3; d++ {
					ax := euler.Axis(d)
					s.flux[d][p] = euler.Flux(ax, q)
					s.sigma[d][p] = euler.SpectralRadius(ax, q)
				}
			}
		}
	}
}

// rhsFromStaged builds the right-hand side from the staged arrays by
// gathering lines and reusing the shared accumulation kernel, in the
// same J→K→L order as the cache variant so every point's value is
// built by the identical float sequence.
func (s *VectorSolver) rhsFromStaged(zs *ZoneState) {
	z, cfg := zs.Zone, &s.cfg
	// Line buffers (borrow the plane scratch; a line always fits).
	qbuf := make([]linalg.Vec5, z.MaxDim())
	fbuf := make([]linalg.Vec5, z.MaxDim())
	sbuf := make([]float64, z.MaxDim())
	rbuf := make([]linalg.Vec5, z.MaxDim())

	gather := func(d int, ax euler.Axis, a, b, n int) {
		for i := 0; i < n; i++ {
			j, k, l := lineIndex(ax, i, a, b)
			p := z.Index(j, k, l)
			fbuf[i] = s.flux[d][p]
			sbuf[i] = s.sigma[d][p]
		}
	}

	// J pass (initializes R).
	nJ := z.JMax
	for l := 1; l <= z.LMax-2; l++ {
		for k := 1; k <= z.KMax-2; k++ {
			loadLine(&zs.Q, euler.X, k, l, qbuf, nJ)
			gather(0, euler.X, k, l, nJ)
			clear(rbuf[:nJ])
			rhsLineAccum(qbuf, fbuf, sbuf, rbuf, nJ, z.DJ, cfg.Dt, cfg.Eps4, cfg.Eps2B, zs.geom[euler.X])
			storeLineInterior(&zs.R, euler.X, k, l, rbuf, nJ)
		}
	}
	// K pass.
	nK := z.KMax
	for l := 1; l <= z.LMax-2; l++ {
		for j := 1; j <= z.JMax-2; j++ {
			loadLine(&zs.Q, euler.Y, j, l, qbuf, nK)
			gather(1, euler.Y, j, l, nK)
			loadLine(&zs.R, euler.Y, j, l, rbuf, nK)
			rhsLineAccum(qbuf, fbuf, sbuf, rbuf, nK, z.DK, cfg.Dt, cfg.Eps4, cfg.Eps2B, zs.geom[euler.Y])
			storeLineInterior(&zs.R, euler.Y, j, l, rbuf, nK)
		}
	}
	// L pass.
	nL := z.LMax
	for k := 1; k <= z.KMax-2; k++ {
		for j := 1; j <= z.JMax-2; j++ {
			loadLine(&zs.Q, euler.Z, j, k, qbuf, nL)
			gather(2, euler.Z, j, k, nL)
			loadLine(&zs.R, euler.Z, j, k, rbuf, nL)
			rhsLineAccum(qbuf, fbuf, sbuf, rbuf, nL, z.DL, cfg.Dt, cfg.Eps4, cfg.Eps2B, zs.geom[euler.Z])
			if cfg.Viscous {
				viscousLineAccum(qbuf, rbuf, nL, z.DL, cfg.Dt, cfg.Re, zs.geom[euler.Z])
			}
			storeLineInterior(&zs.R, euler.Z, j, k, rbuf, nL)
		}
	}
}

// sweepPlanar applies one direction's implicit factor, processing one
// whole plane of independent systems at a time: eigensystems for the
// full plane go into plane-sized scratch, the five characteristic
// systems are solved with the vectorizable planar Thomas algorithm
// (inner loops across systems), and the updates are transformed back.
// When update is true (the final factor) the conserved variables are
// advanced in the same pass and the largest |Δ| is returned.
func (s *VectorSolver) sweepPlanar(zs *ZoneState, ax euler.Axis, update bool) float64 {
	z, cfg := zs.Zone, &s.cfg
	n := lineLen(z, ax) // points along the sweep, incl. boundaries
	ni := n - 2         // interior unknowns
	outer, inner := crossDims(z, ax)
	nsys := inner - 2 // systems per plane
	if ni < 1 || nsys < 1 {
		return 0
	}
	h := spacing(z, ax)
	nu := cfg.Dt / (2 * h)
	muScale := cfg.EpsI * cfg.Dt / h
	maxDelta := 0.0
	var q, r, wv linalg.Vec5

	for o := 1; o <= outer-2; o++ {
		// Plane eigensystems and characteristic RHS. The plane is
		// indexed [i][sys] with i along the sweep (interior 1..ni) and
		// sys across (interior cross index = sys+1).
		for i := 1; i <= ni; i++ {
			row := (i - 1) * nsys
			for sy := 0; sy < nsys; sy++ {
				j, k, l := lineIndex(ax, i, sy+1, o)
				zs.Q.Point(j, k, l, q[:])
				s.eig[row+sy] = euler.Eigensystem(ax, q)
				zs.R.Point(j, k, l, r[:])
				wv = linalg.MulVec5(&s.eig[row+sy].Tinv, &r)
				for c := 0; c < euler.NC; c++ {
					s.w[c][row+sy] = wv[c]
				}
			}
		}
		// Tridiagonal bands per characteristic field, vector order:
		// outer over rows, inner (unit stride) over systems.
		viscous := cfg.viscRe() > 0 && ax == euler.Z
		g := zs.geom[ax]
		for c := 0; c < euler.NC; c++ {
			for i := 1; i <= ni; i++ {
				row := (i - 1) * nsys
				for sy := 0; sy < nsys; sy++ {
					sig := sigmaFromLambda(&s.eig[row+sy].Lambda)
					nui, mu := nu, muScale*sig
					if g != nil {
						nui = cfg.Dt * g.inv2h[i]
						mu = cfg.EpsI * cfg.Dt * g.invh[i] * sig
					}
					lamPrev, lamNext := 0.0, 0.0
					if i > 1 {
						lamPrev = s.eig[row-nsys+sy].Lambda[c]
					}
					if i < ni {
						lamNext = s.eig[row+nsys+sy].Lambda[c]
					}
					av, bv, cv := implicitRow(nui, mu, lamPrev, lamNext)
					if viscous {
						j, k, l := lineIndex(ax, i, sy+1, o)
						rho := zs.Q.At(0, j, k, l)
						var da, db, dc float64
						if g != nil {
							da, db, dc = viscousImplicitRowVar(cfg.Dt, cfg.Re, rho, g.invdm[i-1], g.invdm[i], g.invh[i])
						} else {
							da, db, dc = viscousImplicitRow(cfg.Dt, h, cfg.Re, rho)
						}
						av += da
						bv += db
						cv += dc
					}
					s.ta[c][row+sy], s.tb[c][row+sy], s.tc[c][row+sy] = av, bv, cv
				}
			}
			linalg.SolveTridiagPlanar(s.ta[c][:ni*nsys], s.tb[c][:ni*nsys], s.tc[c][:ni*nsys],
				s.w[c][:ni*nsys], ni, nsys)
		}
		// Back-transform (and final update).
		for i := 1; i <= ni; i++ {
			row := (i - 1) * nsys
			for sy := 0; sy < nsys; sy++ {
				j, k, l := lineIndex(ax, i, sy+1, o)
				for c := 0; c < euler.NC; c++ {
					wv[c] = s.w[c][row+sy]
				}
				r = linalg.MulVec5(&s.eig[row+sy].T, &wv)
				if update {
					zs.Q.Point(j, k, l, q[:])
					for c := 0; c < euler.NC; c++ {
						d := r[c]
						q[c] += d
						if d < 0 {
							d = -d
						}
						if d > maxDelta {
							maxDelta = d
						}
					}
					zs.Q.SetPoint(j, k, l, q[:])
				} else {
					zs.R.SetPoint(j, k, l, r[:])
				}
			}
		}
	}
	return maxDelta
}
