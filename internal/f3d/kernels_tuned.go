package f3d

import (
	"math"

	"repro/internal/euler"
	"repro/internal/linalg"
)

// Tuned inner-loop kernels for the cache solver: the scalar reference
// kernels of kernels.go restructured the way the paper's §4 serial
// tuning restructured the vector code — invariant subexpressions
// hoisted out of the component loop, the five characteristic systems
// solved as one lane batch so their recurrences overlap, the geometry
// branch lifted out of the inner loop, the characteristic transforms
// specialised to the sweep's axis (euler.AxisEigen), and the axis-
// independent decomposition of each point (euler.DecomposeInto: a divide,
// the pressure, a divide and a square root) read from ZoneState.pts,
// filled once per step, instead of recomputed in each of six passes.
// Every operation kept has the scalar form's operands and order (a
// stored value is the very expression the scalar path evaluates in
// place); the only ones dropped are products with a direction cosine
// that is exactly 0, whose ±0 terms cannot change a sum that starts from
// +0 (DESIGN.md §8). So tuned results are bitwise identical to the
// scalar forms while the solve is finite; internal/check enforces that
// on every build.
//
// Per-point results are stored element by element where they live, never
// assigned as whole Vec5 / PointState values (DESIGN.md §8, lint/stfwd.sh).

// kernelSet is the dispatch seam between the cache solver's loop
// drivers and the per-line kernels. The drivers (rhsPassJK, rhsPassL,
// sweepJK, sweepLUpdate) call through the worker's set, so the scalar
// reference and the tuned production kernels share every line of
// driver code.
type kernelSet struct {
	sweepLine func(p *pencil, n int, ax euler.Axis, h, dt, epsI, viscRe float64, g *axisGeom, dissip4 bool)
	rhsFlux   func(ax euler.Axis, q []linalg.Vec5, s []euler.PointState, flux []linalg.Vec5, sigma []float64, n int)
	rhsAccum  func(q, flux []linalg.Vec5, sigma []float64, r []linalg.Vec5, n int, h, dt, eps4, eps2b float64, g *axisGeom)
	// points: the set reads ZoneState.pts, so its solver's zones keep them.
	points bool
}

var (
	// tunedKernelSet is what every solver built by NewCacheSolver or
	// NewBlockSolver runs; scalarKernelSet is the conformance reference,
	// bound only by NewReferenceSolver.
	tunedKernelSet  = kernelSet{sweepLine: sweepLineModeTuned, rhsFlux: rhsLineFluxTuned, rhsAccum: rhsLineAccumTuned, points: true}
	scalarKernelSet = kernelSet{sweepLine: sweepLineMode, rhsFlux: rhsLineFlux, rhsAccum: rhsLineAccum}
)

// The lane-batched solvers are locked to one lane per characteristic
// field; this fails to compile if the two constants ever diverge.
var _ [linalg.Lanes][]float64 = [euler.NC][]float64{}

// sweepLineModeTuned is sweepLineMode with the component loop turned
// inside out: the spectral radius, metric coefficients and viscous row
// — all invariant in c — are computed once per point instead of once
// per (component, point), and the five per-component band systems are
// solved as one linalg lane batch. Per component the assembled
// coefficients and the elimination order are exactly those of the
// scalar path, and euler.AxisEigen reproduces the dense transforms'
// products, so the results match bitwise. Of the time-level-n state it
// reads only the records p.s[1..n-2] (q[i] decomposed), never p.q.
func sweepLineModeTuned(p *pencil, n int, ax euler.Axis, h, dt, epsI, viscRe float64, g *axisGeom, dissip4 bool) {
	ni := n - 2 // interior unknowns
	if ni < 1 {
		return
	}
	p.checkLine(n)
	nu := dt / (2 * h)
	muScale := epsI * dt / h
	// Axis-specialised eigensystems and characteristic-variable RHS at
	// interior points: T⁻¹ is applied as it is built and never stored.
	var w linalg.Vec5
	for i := 1; i <= ni; i++ {
		p.eig[i].Forward(ax, &p.s[i], &p.r[i], &w)
		for c := 0; c < euler.NC; c++ {
			p.w[c][i-1] = w[c]
		}
	}
	// Band assembly, point-outer: everything independent of the
	// component is hoisted to once per point.
	viscous := viscRe > 0 && ax == euler.Z
	var noLambda linalg.Vec5
	for i := 1; i <= ni; i++ {
		sig := sigmaFromLambda(&p.eig[i].Lambda)
		nui, mu := nu, muScale*sig
		if g != nil {
			nui = dt * g.inv2h[i]
			mu = epsI * dt * g.invh[i] * sig
		}
		var da, db, dc float64
		if viscous {
			if g != nil {
				da, db, dc = viscousImplicitRowVar(dt, viscRe, p.s[i].Rho, g.invdm[i-1], g.invdm[i], g.invh[i])
			} else {
				da, db, dc = viscousImplicitRow(dt, h, viscRe, p.s[i].Rho)
			}
		}
		// Off either end the neighbour's Λ is the scalar path's 0.
		lamPrev, lamNext := &noLambda, &noLambda
		if i > 1 {
			lamPrev = &p.eig[i-1].Lambda
		}
		if i < ni {
			lamNext = &p.eig[i+1].Lambda
		}
		interior4 := dissip4 && i >= 2 && i <= ni-1
		for c := 0; c < euler.NC; c++ {
			lp, ln := lamPrev[c], lamNext[c]
			var a, b, cc float64
			if dissip4 {
				a, b, cc = implicitRow(nui, 0, lp, ln)
				if interior4 {
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
				a, b, cc = implicitRow(nui, mu, lp, ln)
			}
			if viscous {
				a += da
				b += db
				cc += dc
			}
			p.ta[c][i-1], p.tb[c][i-1], p.tc[c][i-1] = a, b, cc
		}
	}
	// One batched solve across the five characteristic fields.
	if dissip4 {
		linalg.SolvePentadiag5(&p.te, &p.ta, &p.tb, &p.tc, &p.tf, &p.w, ni)
	} else {
		linalg.SolveTridiag5(&p.ta, &p.tb, &p.tc, &p.w, ni)
	}
	// Back-transform to conserved updates.
	for i := 1; i <= ni; i++ {
		for c := 0; c < euler.NC; c++ {
			w[c] = p.w[c][i-1]
		}
		p.eig[i].Back(ax, &p.s[i], &w, &p.r[i])
	}
	p.r[0] = linalg.Vec5{}
	p.r[n-1] = linalg.Vec5{}
}

// rhsLineFluxTuned is rhsLineFlux with no primitive conversion: the
// scalar kernel's Flux and SpectralRadius each convert the conserved
// state on their own; here both start from s[i], q[i]'s decomposition,
// whose fields are the scalar path's own intermediates — bitwise equal.
func rhsLineFluxTuned(ax euler.Axis, q []linalg.Vec5, s []euler.PointState, flux []linalg.Vec5, sigma []float64, n int) {
	kx, ky, kz := ax.Unit()
	q, s, flux, sigma = q[:n], s[:n], flux[:n], sigma[:n]
	for i := 0; i < n; i++ {
		euler.FluxDirPrimInto(&flux[i], kx, ky, kz, &q[i], &s[i].Prim)
		sigma[i] = math.Abs(s[i].Velocity(ax)) + s[i].A // euler.SpectralRadius's sum
	}
}

// rhsLineAccumTuned is rhsLineAccum with the geometry branch hoisted
// out of the point loop into two specialized loops, the interior-vs-
// boundary stencil test hoisted out of the component loop, and the
// point's five-vector rows pinned once per point. Identical per-element
// expressions in identical order — bitwise equal to the scalar form.
func rhsLineAccumTuned(q []linalg.Vec5, flux []linalg.Vec5, sigma []float64, r []linalg.Vec5,
	n int, h, dt, eps4, eps2b float64, g *axisGeom) {
	if n < 3 {
		return
	}
	q, flux, sigma, r = q[:n], flux[:n], sigma[:n], r[:n]
	if g == nil {
		nu := dt / (2 * h)
		ds := dt / h
		for i := 1; i <= n-2; i++ {
			rhsPointAccum(q, flux, r, i, n, nu, ds*sigma[i], eps4, eps2b)
		}
		return
	}
	for i := 1; i <= n-2; i++ {
		rhsPointAccum(q, flux, r, i, n, dt*g.inv2h[i], dt*g.invh[i]*sigma[i], eps4, eps2b)
	}
}

// rhsPointAccum adds one point's flux difference and dissipation to
// r[i], the shared inner body of the two rhsLineAccumTuned loops.
func rhsPointAccum(q, flux, r []linalg.Vec5, i, n int, nui, coeff, eps4, eps2b float64) {
	fm, fp := &flux[i-1], &flux[i+1]
	ri := &r[i]
	if i >= 2 && i <= n-3 {
		qm2, qm1, q0, qp1, qp2 := &q[i-2], &q[i-1], &q[i], &q[i+1], &q[i+2]
		e4 := eps4 * coeff
		for c := 0; c < euler.NC; c++ {
			// Fourth difference as a second difference of second
			// differences, exactly as the scalar kernel forms it.
			sm := (qm2[c] - qm1[c]) - (qm1[c] - q0[c])
			s0 := (qm1[c] - q0[c]) - (q0[c] - qp1[c])
			sp := (q0[c] - qp1[c]) - (qp1[c] - qp2[c])
			d4 := (sm - s0) - (s0 - sp)
			ri[c] += -nui*(fp[c]-fm[c]) - e4*d4
		}
		return
	}
	qm1, q0, qp1 := &q[i-1], &q[i], &q[i+1]
	e2 := eps2b * coeff
	for c := 0; c < euler.NC; c++ {
		d2 := (qm1[c] - q0[c]) - (q0[c] - qp1[c])
		ri[c] += -nui*(fp[c]-fm[c]) + e2*d2
	}
}
