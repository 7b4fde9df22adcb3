package f3d

import (
	"fmt"
	"math"

	"repro/internal/cachesim"
	"repro/internal/euler"
	"repro/internal/linalg"
)

// This file holds the per-point and per-pencil numerical kernels shared
// by both solver variants. Both variants call exactly these functions
// with exactly the same operand values, so their results agree bitwise;
// the variants differ only in loop order, scratch-array shape and
// parallelization — the dimensions the paper's tuning works in.

// sigmaFromLambda extracts the spectral radius |θ|+a from a
// characteristic speed vector (θ, θ, θ, θ+a, θ−a).
func sigmaFromLambda(lambda *linalg.Vec5) float64 {
	s := math.Abs(lambda[3])
	if t := math.Abs(lambda[4]); t > s {
		s = t
	}
	return s
}

// implicitRow returns the tridiagonal row (a, b, c) of the factored
// implicit operator at one interior point:
//
//	(I + ν δ(λ·) − μ ∇Δ)  with  ν = dt/(2h), μ = εI·(dt/h)·σ
//
// lamPrev and lamNext are the characteristic speed at the neighboring
// points (their coefficients multiply the neighbor updates, which are
// zero at explicit boundaries, so passing any value for an off-end
// neighbor is harmless — the solver ignores a[0] and c[n−1]).
func implicitRow(nu, mu, lamPrev, lamNext float64) (a, b, c float64) {
	return -nu*lamPrev - mu, 1 + 2*mu, nu*lamNext - mu
}

// pencil is one worker's line scratch: buffers for the K and L lines
// the drivers gather out of the zone fields (J lines are read in place),
// plus the per-point eigensystems and band lanes every sweep works in —
// the cache-sized working set of the tuned code (and one row of the
// plane-sized working set of the vector code).
type pencil struct {
	n   int                 // points along the line, including boundaries
	q   []linalg.Vec5       // conserved state
	s   []euler.PointState  // its decomposition, gathered from ZoneState.pts (tuned kernels only)
	r   []linalg.Vec5       // right-hand side / update
	eig []euler.AxisEigen   // Λ and T's nonzeros at interior points (index 1..n-2)
	w   [euler.NC][]float64 // characteristic variables, per component
	ta  [euler.NC][]float64 // tridiagonal sub-diagonal, per component
	tb  [euler.NC][]float64 // tridiagonal diagonal
	tc  [euler.NC][]float64 // tridiagonal super-diagonal
	// Outer bands for the pentadiagonal (implicit fourth-difference
	// dissipation) mode.
	te [euler.NC][]float64
	tf [euler.NC][]float64
	// The scalar reference sweep's dense eigensystems, allocated by
	// sweepLineMode on first use: a served pencil never carries them.
	eigRef []euler.Eigen
}

// newPencil allocates a pencil for lines of up to nmax points. The
// band scratch is carved from one contiguous arena sized by
// cachesim.PencilFloats, family-major: the five lanes of each band
// family sit back to back, so the lane-batched solvers walk five
// streams that share cache lines instead of six scattered allocations.
func newPencil(nmax int) *pencil {
	p := &pencil{
		n:   nmax,
		q:   make([]linalg.Vec5, nmax),
		r:   make([]linalg.Vec5, nmax),
		s:   make([]euler.PointState, nmax),
		eig: make([]euler.AxisEigen, nmax),
	}
	ar := cachesim.NewArena(cachesim.PencilFloats(nmax, euler.NC))
	for _, fam := range []*[euler.NC][]float64{&p.w, &p.ta, &p.tb, &p.tc, &p.te, &p.tf} {
		for c := 0; c < euler.NC; c++ {
			fam[c] = ar.F64(nmax)
		}
	}
	return p
}

// checkLine validates the line length against the pencil's capacity
// before any kernel writes scratch: a too-long line must fail here,
// not partway through the eigensystem pass with half the pencil
// already overwritten.
func (p *pencil) checkLine(n int) {
	if n > p.n {
		panic(fmt.Sprintf("f3d: line of %d points exceeds pencil capacity %d", n, p.n))
	}
}

// sweepLineMode applies one direction's factored implicit operator to
// one line of n points: interior updates r[1..n-2] are replaced by the
// solution of T (I + νδΛ − μ∇Δ) T⁻¹ Δ = r. q[0..n-1] must hold the
// time-level-n states along the line (s, the point records, is not
// read); boundary updates are zero (explicit boundary conditions). q and
// r may be a field's line in place; p supplies only scratch.
//
// The five scalar band systems (one per characteristic field) are built
// with implicitRow and solved with linalg.SolveTridiag; dissip4 switches
// from the tridiagonal (I − μ∇Δ) form to the pentadiagonal
// (I + ε·σ·(dt/h)·Δ⁴) form of the ARC3D implicit fourth-difference
// dissipation.
//
// viscRe > 0 enables the thin-layer viscous augmentation of the
// L-direction factor (viscousImplicitRow); pass 0 for inviscid runs and
// for the J/K factors.
//
// g carries the metric arrays of a stretched (nonuniform) direction;
// nil means uniform spacing h and leaves the uniform expressions — and
// their bitwise behaviour — untouched.
func sweepLineMode(p *pencil, q []linalg.Vec5, _ []euler.PointState, r []linalg.Vec5, n int, ax euler.Axis, h, dt, epsI, viscRe float64, g *axisGeom, dissip4 bool) {
	ni := n - 2 // interior unknowns
	if ni < 1 {
		return
	}
	p.checkLine(n)
	if p.eigRef == nil {
		p.eigRef = make([]euler.Eigen, p.n)
	}
	eig := p.eigRef
	nu := dt / (2 * h)
	muScale := epsI * dt / h
	// Eigensystems and characteristic-variable RHS at interior points.
	for i := 1; i <= ni; i++ {
		eig[i] = euler.Eigensystem(ax, q[i])
		w := linalg.MulVec5(&eig[i].Tinv, &r[i])
		for c := 0; c < euler.NC; c++ {
			p.w[c][i-1] = w[c]
		}
	}
	// Band coefficients per characteristic field.
	viscous := viscRe > 0 && ax == euler.Z
	for c := 0; c < euler.NC; c++ {
		for i := 1; i <= ni; i++ {
			sig := sigmaFromLambda(&eig[i].Lambda)
			nui, mu := nu, muScale*sig
			if g != nil {
				nui = dt * g.inv2h[i]
				mu = epsI * dt * g.invh[i] * sig
			}
			lamPrev, lamNext := 0.0, 0.0
			if i > 1 {
				lamPrev = eig[i-1].Lambda[c]
			}
			if i < ni {
				lamNext = eig[i+1].Lambda[c]
			}
			var a, b, cc float64
			if dissip4 {
				// Convective part only; the dissipation enters as an
				// undivided fourth difference (+μ(1, −4, 6, −4, 1)),
				// degraded to the second-difference form at the first and
				// last interior rows where the stencil does not fit.
				a, b, cc = implicitRow(nui, 0, lamPrev, lamNext)
				if i >= 2 && i <= ni-1 {
					p.te[c][i-1] = mu
					p.tf[c][i-1] = mu
					a += -4 * mu
					b += 6 * mu
					cc += -4 * mu
				} else {
					p.te[c][i-1] = 0
					p.tf[c][i-1] = 0
					a += -mu
					b += 2 * mu
					cc += -mu
				}
			} else {
				a, b, cc = implicitRow(nui, mu, lamPrev, lamNext)
			}
			if viscous {
				var da, db, dc float64
				if g != nil {
					da, db, dc = viscousImplicitRowVar(dt, viscRe, q[i][0], g.invdm[i-1], g.invdm[i], g.invh[i])
				} else {
					da, db, dc = viscousImplicitRow(dt, h, viscRe, q[i][0])
				}
				a += da
				b += db
				cc += dc
			}
			p.ta[c][i-1], p.tb[c][i-1], p.tc[c][i-1] = a, b, cc
		}
		if dissip4 {
			linalg.SolvePentadiag(p.te[c][:ni], p.ta[c][:ni], p.tb[c][:ni], p.tc[c][:ni], p.tf[c][:ni], p.w[c][:ni])
		} else {
			linalg.SolveTridiag(p.ta[c][:ni], p.tb[c][:ni], p.tc[c][:ni], p.w[c][:ni])
		}
	}
	// Back-transform to conserved updates.
	for i := 1; i <= ni; i++ {
		var w linalg.Vec5
		for c := 0; c < euler.NC; c++ {
			w[c] = p.w[c][i-1]
		}
		r[i] = linalg.MulVec5(&eig[i].T, &w)
	}
	r[0] = linalg.Vec5{}
	r[n-1] = linalg.Vec5{}
}

// rhsLineFlux fills flux[i] = F(q[i]) and sigma[i] for one line, from q
// alone: the scalar reference never looks at a point record.
func rhsLineFlux(ax euler.Axis, q []linalg.Vec5, _ []euler.PointState, flux []linalg.Vec5, sigma []float64, n int) {
	for i := 0; i < n; i++ {
		flux[i] = euler.Flux(ax, q[i])
		sigma[i] = euler.SpectralRadius(ax, q[i])
	}
}

// rhsLineAccum adds one direction's contribution to the right-hand side
// of a line of n points: the central flux difference plus scalar
// artificial dissipation (fourth difference in the interior, second
// difference at boundary-adjacent points). r[1..n-2] are updated;
// boundary entries are untouched.
//
//	r_i += −ν (F_{i+1} − F_{i−1}) + (dt/h)·σ_i · D_i(q)
//	D_i  =  −ε4 (q_{i−2} − 4q_{i−1} + 6q_i − 4q_{i+1} + q_{i+2})   (interior)
//	D_i  =  +ε2 (q_{i+1} − 2q_i + q_{i−1})                          (ends)
//
// g carries stretched-direction metrics; nil means uniform spacing h.
func rhsLineAccum(q []linalg.Vec5, flux []linalg.Vec5, sigma []float64, r []linalg.Vec5,
	n int, h, dt, eps4, eps2b float64, g *axisGeom) {
	nu := dt / (2 * h)
	ds := dt / h
	// The difference stencils are evaluated as nested first differences
	// so that they vanish *exactly* (not merely to rounding) on constant
	// data: a uniform freestream must be a bitwise steady state.
	for i := 1; i <= n-2; i++ {
		nui, coeff := nu, ds*sigma[i]
		if g != nil {
			nui = dt * g.inv2h[i]
			coeff = dt * g.invh[i] * sigma[i]
		}
		for c := 0; c < euler.NC; c++ {
			v := -nui * (flux[i+1][c] - flux[i-1][c])
			if i >= 2 && i <= n-3 {
				// Fourth difference as a second difference of second
				// differences.
				sm := (q[i-2][c] - q[i-1][c]) - (q[i-1][c] - q[i][c])
				s0 := (q[i-1][c] - q[i][c]) - (q[i][c] - q[i+1][c])
				sp := (q[i][c] - q[i+1][c]) - (q[i+1][c] - q[i+2][c])
				d4 := (sm - s0) - (s0 - sp)
				v -= eps4 * coeff * d4
			} else {
				d2 := (q[i-1][c] - q[i][c]) - (q[i][c] - q[i+1][c])
				v += eps2b * coeff * d2
			}
			r[i][c] += v
		}
	}
}

// Flop-count estimates per interior grid point, used for MFLOPS
// reporting. They are analytic operation counts of the scalar kernels
// above (counted on the source, ±a few percent), not measurements, and
// they count the algorithm, not the implementation (the paper's Table 4
// convention): f3dc and the benchmark derive delivered MFLOPS from
// them, so recounting a tuned kernel that skips operations would report
// a faster solve as a slower one. TestFlopsPerPointFrozen pins the sum.
const (
	// flopsRHSPerPoint covers three directions of flux evaluation,
	// spectral radii, central differences and dissipation.
	flopsRHSPerPoint = 3 * (22 + 12 + 34)
	// flopsSweepPerPoint covers one direction's eigensystem,
	// characteristic transforms, row assembly and tridiagonal solve.
	flopsSweepPerPoint = 150 + 2*45 + 5*13 + 8
	// flopsUpdatePerPoint is the conserved-variable update.
	flopsUpdatePerPoint = 5
)

// FlopsPerPoint returns the estimated floating-point operations per
// interior grid point per time step (RHS + three sweeps + update).
func FlopsPerPoint() float64 {
	return flopsRHSPerPoint + 3*flopsSweepPerPoint + flopsUpdatePerPoint
}
