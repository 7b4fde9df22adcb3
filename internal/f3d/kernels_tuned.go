package f3d

import (
	"math"

	"repro/internal/euler"
	"repro/internal/linalg"
)

// Tuned inner-loop kernels for the cache solver: the scalar reference
// kernels of kernels.go restructured the way the paper's §4 serial
// tuning restructured the vector code — invariant subexpressions
// hoisted out of the component loop, one forward and one backward pass
// per sweep line with three band lanes for five right-hand sides, the
// geometry branch lifted out of the inner loop, the characteristic transforms
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
// driver code. Every kernel takes its lines as slices — a field's J line
// in place, or a K/L line gathered into the pencil — and writes only the
// interior points 1..n-2 of r, except the sweeps' +0 at both ends.
type kernelSet struct {
	sweepLine func(p *pencil, q []linalg.Vec5, s []euler.PointState, r []linalg.Vec5, n int, ax euler.Axis, h, dt, epsI, viscRe float64, g *axisGeom, dissip4 bool)
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

// sweepLineModeTuned is sweepLineMode as one forward and one backward
// pass (DESIGN.md §8). Forward: transform point i+1's right-hand side in
// place (row i needs its Λ), compute σ, ν, μ, the viscous row and the
// neighbouring Λ once, build row i for lanes 0, 3 and 4 only — Λ's lanes
// 0-2 are one value (euler.AxisEigen.Forward), so lane 0's pivots and
// multipliers serve right-hand sides 0-2 — and eliminate it at once, in r
// itself. Backward: substitute and AxisEigen.Back point by point. Every
// stored value is the expression linalg.SolveTridiag / SolvePentadiag
// evaluate for that component, same operands, same order: bitwise equal.
// Of the time-level-n state it reads only s[1..n-2], never q.
func sweepLineModeTuned(p *pencil, _ []linalg.Vec5, s []euler.PointState, r []linalg.Vec5, n int, ax euler.Axis, h, dt, epsI, viscRe float64, g *axisGeom, dissip4 bool) {
	ni := n - 2 // interior unknowns
	if ni < 1 {
		return
	}
	p.checkLine(n)
	nu := dt / (2 * h)
	muScale := epsI * dt / h
	viscous := viscRe > 0 && ax == euler.Z
	s, r, eig := s[:n], r[:n], p.eig[:n]
	c0, c3, c4 := p.tc[0][:ni], p.tc[3][:ni], p.tc[4][:ni]
	f0, f3, f4 := p.tf[0][:ni], p.tf[3][:ni], p.tf[4][:ni]
	eig[1].Forward(ax, &s[1], &r[1], &r[1])
	for i := 1; i <= ni; i++ {
		k := i - 1 // band row
		// Off either end the neighbour's Λ is the scalar path's 0.
		var lp0, lp3, lp4, ln0, ln3, ln4 float64
		if i > 1 {
			lp := &eig[i-1].Lambda
			lp0, lp3, lp4 = lp[0], lp[3], lp[4]
		}
		if i < ni {
			eig[i+1].Forward(ax, &s[i+1], &r[i+1], &r[i+1])
			ln := &eig[i+1].Lambda
			ln0, ln3, ln4 = ln[0], ln[3], ln[4]
		}
		sig := sigmaFromLambda(&eig[i].Lambda)
		nui, mu := nu, muScale*sig
		if g != nil {
			nui = dt * g.inv2h[i]
			mu = epsI * dt * g.invh[i] * sig
		}
		// The band row. dissip4 takes the convective part alone and adds
		// the undivided fourth difference (e = f = μ), degraded to the
		// second difference on the first and last interior rows.
		var e, rowMu float64
		if !dissip4 {
			rowMu = mu
		}
		a0, b, cc0 := implicitRow(nui, rowMu, lp0, ln0)
		a3, _, cc3 := implicitRow(nui, rowMu, lp3, ln3)
		a4, _, cc4 := implicitRow(nui, rowMu, lp4, ln4)
		if dissip4 {
			ka, kb := -mu, 2*mu
			if i >= 2 && i <= ni-1 {
				e, ka, kb = mu, -4*mu, 6*mu
			}
			a0, a3, a4, b, cc0, cc3, cc4 = a0+ka, a3+ka, a4+ka, b+kb, cc0+ka, cc3+ka, cc4+ka
		}
		if viscous {
			var da, db, dc float64
			if g != nil {
				da, db, dc = viscousImplicitRowVar(dt, viscRe, s[i].Rho, g.invdm[i-1], g.invdm[i], g.invh[i])
			} else {
				da, db, dc = viscousImplicitRow(dt, h, viscRe, s[i].Rho)
			}
			a0, a3, a4, b, cc0, cc3, cc4 = a0+da, a3+da, a4+da, b+db, cc0+dc, cc3+dc, cc4+dc
		}
		// Eliminate it: per lane the pivot's reciprocal and the multiplier
		// of row k-1 (the pentadiagonal's of row k-2 is e).
		var m0, m3, m4, i0, i3, i4 float64
		switch {
		case k == 0:
			i0, i3, i4 = 1/b, 1/b, 1/b
		case !dissip4 || k == 1:
			m0, m3, m4 = a0, a3, a4
			i0 = 1 / (b - a0*c0[k-1])
			i3 = 1 / (b - a3*c3[k-1])
			i4 = 1 / (b - a4*c4[k-1])
			if dissip4 {
				cc0, cc3, cc4 = cc0-a0*f0[k-1], cc3-a3*f3[k-1], cc4-a4*f4[k-1]
			}
		default:
			m0, m3, m4 = a0-e*c0[k-2], a3-e*c3[k-2], a4-e*c4[k-2]
			i0 = 1 / (b - e*f0[k-2] - m0*c0[k-1])
			i3 = 1 / (b - e*f3[k-2] - m3*c3[k-1])
			i4 = 1 / (b - e*f4[k-2] - m4*c4[k-1])
			cc0, cc3, cc4 = cc0-m0*f0[k-1], cc3-m3*f3[k-1], cc4-m4*f4[k-1]
		}
		c0[k], c3[k], c4[k] = cc0*i0, cc3*i3, cc4*i4
		if dissip4 {
			f0[k], f3[k], f4[k] = e*i0, e*i3, e*i4
		}
		d := &r[i]
		switch {
		case k == 0 && dissip4 && ni == 1:
			d[0], d[1], d[2], d[3], d[4] = d[0]/b, d[1]/b, d[2]/b, d[3]/b, d[4]/b
		case k == 0:
			d[0], d[1], d[2], d[3], d[4] = d[0]*i0, d[1]*i0, d[2]*i0, d[3]*i3, d[4]*i4
		case !dissip4 || k == 1:
			dm := &r[i-1]
			d[0] = (d[0] - m0*dm[0]) * i0
			d[1] = (d[1] - m0*dm[1]) * i0
			d[2] = (d[2] - m0*dm[2]) * i0
			d[3] = (d[3] - m3*dm[3]) * i3
			d[4] = (d[4] - m4*dm[4]) * i4
		default:
			dm, dmm := &r[i-1], &r[i-2]
			d[0] = (d[0] - e*dmm[0] - m0*dm[0]) * i0
			d[1] = (d[1] - e*dmm[1] - m0*dm[1]) * i0
			d[2] = (d[2] - e*dmm[2] - m0*dm[2]) * i0
			d[3] = (d[3] - e*dmm[3] - m3*dm[3]) * i3
			d[4] = (d[4] - e*dmm[4] - m4*dm[4]) * i4
		}
	}
	// Back substitution, each row transformed back to conserved updates
	// as soon as it is solved; n* and nn* carry rows k+1 and k+2.
	var n0, n1, n2, n3, n4, nn0, nn1, nn2, nn3, nn4 float64
	for k := ni - 1; k >= 0; k-- {
		d := &r[k+1]
		w0, w1, w2, w3, w4 := d[0], d[1], d[2], d[3], d[4]
		switch {
		case k == ni-1:
		case !dissip4 || k == ni-2:
			w0 -= c0[k] * n0
			w1 -= c0[k] * n1
			w2 -= c0[k] * n2
			w3 -= c3[k] * n3
			w4 -= c4[k] * n4
		default:
			w0 -= c0[k]*n0 + f0[k]*nn0
			w1 -= c0[k]*n1 + f0[k]*nn1
			w2 -= c0[k]*n2 + f0[k]*nn2
			w3 -= c3[k]*n3 + f3[k]*nn3
			w4 -= c4[k]*n4 + f4[k]*nn4
		}
		nn0, nn1, nn2, nn3, nn4 = n0, n1, n2, n3, n4
		n0, n1, n2, n3, n4 = w0, w1, w2, w3, w4
		d[0], d[1], d[2], d[3], d[4] = w0, w1, w2, w3, w4
		eig[k+1].Back(ax, &s[k+1], d, d)
	}
	r[0] = linalg.Vec5{}
	r[n-1] = linalg.Vec5{}
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
