package euler

import (
	"math"

	"repro/internal/linalg"
)

// AxisEigen is what an axis-aligned sweep keeps of the Pulliam–Chaussee
// eigensystem at one point: Λ and the entries of T that are not
// structurally zero when two of the three direction cosines are. T⁻¹ is
// never stored — Forward applies it from locals while it builds T.
//
// Forward and Back equal EigensystemDir(ax.Unit()) followed by
// linalg.MulVec5 bit for bit while the generic T, T⁻¹ and the vectors
// are finite: every kept entry is the generic expression without its
// 0·x terms, and MulVec5's sums start from +0, so the ±0 terms dropped
// could not have changed them (DESIGN.md §8).
type AxisEigen struct {
	Lambda linalg.Vec5
	// T's nonzeros: row 0 is (1 on the axis column, α, α); momentum row
	// b is the point's velocity component b on the axis column, ±ρ on at
	// most one other (Back reads both from the PointState), then ap[b],
	// am[b]; the energy row h is dense.
	alpha  float64
	ap, am [3]float64 // α·(vel ± a) for the axis component, α·vel (twice) off it
	h      [NC]float64
}

// Forward builds the eigensystem of the flux Jacobian along ax at the
// point whose decomposition (DecomposeInto(s, uc)) is s into e and stores
// the characteristic variables T⁻¹·r in c. DecomposeInto then Forward
// panic exactly where Eigensystem(ax, uc) does: a non-positive or NaN
// density, a non-positive pressure, a bad axis.
//
// Forward and Back store every element of c and e where it lives
// (DESIGN.md §8, "results are written where they live"), so both may hold
// stale data; each reads its input vector first, so c may be r itself.
func (e *AxisEigen) Forward(ax Axis, s *PointState, r, c *linalg.Vec5) {
	kx, ky, kz := ax.Unit()
	snd, rho, u, v, w := s.A, s.Rho, s.U, s.V, s.W
	r0, r1, r2, r3, r4 := r[0], r[1], r[2], r[3], r[4]
	// Generic form: u + 0·v + 0·w is +0 where u alone is −0, and Λ's
	// zero sign reaches the band coefficients.
	theta := kx*u + ky*v + kz*w
	g1 := Gamma - 1
	phi2 := 0.5 * g1 * (u*u + v*v + w*w)
	alpha := rho / (math.Sqrt2 * snd)
	beta := 1 / (math.Sqrt2 * rho * snd)
	a2 := snd * snd
	// Lanes 0-2 are one value bit for bit: f3d's sweepLineModeTuned builds
	// and eliminates one band for them (TestAxisEigenLambdaLanesShared).
	e.Lambda[0], e.Lambda[1], e.Lambda[2], e.Lambda[3], e.Lambda[4] = theta, theta, theta, theta+snd, theta-snd
	e.alpha = alpha

	// Values more than one entry uses, each computed once.
	ir := 1 / rho
	gu, gv, gw := g1*u, g1*v, g1*w
	au, av, aw := alpha*u, alpha*v, alpha*w
	hs, ts, h0 := (phi2+a2)/g1, theta*snd, phi2/g1
	e.h[3], e.h[4] = alpha*(hs+ts), alpha*(hs-ts)
	// The axis' own convective row of T⁻¹ is dense and the same on every
	// axis; the other two convective rows keep two entries each.
	own := 0.0 + (1-phi2/a2)*r0 + gu/a2*r1 + gv/a2*r2 + gw/a2*r3 + -g1/a2*r4
	// Off the axis column the acoustic rows agree: β·(0 − γ₁v) and
	// −β·(0 + γ₁v) are both −β·γ₁v.
	p1, p2, p3 := -beta*gu, -beta*gv, -beta*gw
	m1, m2, m3 := p1, p2, p3

	switch ax {
	case X:
		c[0] = own
		c[1] = 0.0 + -(w/rho)*r0 + ir*r3
		c[2] = 0.0 + v/rho*r0 + -ir*r2
		p1, m1 = beta*(snd-gu), -beta*(snd+gu)
		e.ap[0], e.ap[1], e.ap[2] = alpha*(u+snd), av, aw
		e.am[0], e.am[1], e.am[2] = alpha*(u-snd), av, aw
		e.h[0], e.h[1], e.h[2] = h0, rho*w, rho*-v
	case Y:
		c[0] = 0.0 + w/rho*r0 + -ir*r3
		c[1] = own
		c[2] = 0.0 + -(u/rho)*r0 + ir*r1
		p2, m2 = beta*(snd-gv), -beta*(snd+gv)
		e.ap[0], e.ap[1], e.ap[2] = au, alpha*(v+snd), aw
		e.am[0], e.am[1], e.am[2] = au, alpha*(v-snd), aw
		e.h[0], e.h[1], e.h[2] = rho*-w, h0, rho*u
	case Z:
		c[0] = 0.0 + -(v/rho)*r0 + ir*r2
		c[1] = 0.0 + u/rho*r0 + -ir*r1
		c[2] = own
		p3, m3 = beta*(snd-gw), -beta*(snd+gw)
		e.ap[0], e.ap[1], e.ap[2] = au, av, alpha*(w+snd)
		e.am[0], e.am[1], e.am[2] = au, av, alpha*(w-snd)
		e.h[0], e.h[1], e.h[2] = rho*v, rho*-u, h0
	}
	c[3] = 0.0 + beta*(phi2-ts)*r0 + p1*r1 + p2*r2 + p3*r3 + beta*g1*r4
	c[4] = 0.0 + beta*(phi2+ts)*r0 + m1*r1 + m2*r2 + m3*r3 + beta*g1*r4
}

// Back stores in r the product T·w for the eigensystem Forward(ax, s, …)
// left in e, its terms in MulVec5's column order after MulVec5's leading
// +0; r may be w itself.
func (e *AxisEigen) Back(ax Axis, s *PointState, w, r *linalg.Vec5) {
	rho, al := s.Rho, e.alpha
	w0, w1, w2, w3, w4 := w[0], w[1], w[2], w[3], w[4]
	switch ax {
	case X:
		r[0] = 0.0 + w0 + al*w3 + al*w4
		r[1] = 0.0 + s.U*w0 + e.ap[0]*w3 + e.am[0]*w4
		r[2] = 0.0 + s.V*w0 + -rho*w2 + e.ap[1]*w3 + e.am[1]*w4
		r[3] = 0.0 + s.W*w0 + rho*w1 + e.ap[2]*w3 + e.am[2]*w4
	case Y:
		r[0] = 0.0 + w1 + al*w3 + al*w4
		r[1] = 0.0 + s.U*w1 + rho*w2 + e.ap[0]*w3 + e.am[0]*w4
		r[2] = 0.0 + s.V*w1 + e.ap[1]*w3 + e.am[1]*w4
		r[3] = 0.0 + -rho*w0 + s.W*w1 + e.ap[2]*w3 + e.am[2]*w4
	case Z:
		r[0] = 0.0 + w2 + al*w3 + al*w4
		r[1] = 0.0 + -rho*w1 + s.U*w2 + e.ap[0]*w3 + e.am[0]*w4
		r[2] = 0.0 + rho*w0 + s.V*w2 + e.ap[1]*w3 + e.am[1]*w4
		r[3] = 0.0 + s.W*w2 + e.ap[2]*w3 + e.am[2]*w4
	default:
		ax.Unit() // not X, Y or Z: panics
	}
	r[4] = 0.0 + e.h[0]*w0 + e.h[1]*w1 + e.h[2]*w2 + e.h[3]*w3 + e.h[4]*w4
}
