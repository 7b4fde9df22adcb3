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
// point whose decomposition is s = Decompose(uc) into e and returns the
// characteristic variables T⁻¹·r. Decompose then Forward panic exactly
// where Eigensystem(ax, uc) does: a non-positive or NaN density, a
// non-positive pressure, a bad axis.
func (e *AxisEigen) Forward(ax Axis, s *PointState, r *linalg.Vec5) linalg.Vec5 {
	kx, ky, kz := ax.Unit()
	snd, rho, u, v, w := s.A, s.Rho, s.U, s.V, s.W
	// Generic form: u + 0·v + 0·w is +0 where u alone is −0, and Λ's
	// zero sign reaches the band coefficients.
	theta := kx*u + ky*v + kz*w
	g1 := Gamma - 1
	phi2 := 0.5 * g1 * (u*u + v*v + w*w)
	alpha := rho / (math.Sqrt2 * snd)
	beta := 1 / (math.Sqrt2 * rho * snd)
	a2 := snd * snd
	e.Lambda = linalg.Vec5{theta, theta, theta, theta + snd, theta - snd}
	e.alpha = alpha

	// Values more than one entry uses, each computed once.
	ir := 1 / rho
	gu, gv, gw := g1*u, g1*v, g1*w
	au, av, aw := alpha*u, alpha*v, alpha*w
	hs, ts := (phi2+a2)/g1, theta*snd
	h0, hp, hm := phi2/g1, alpha*(hs+ts), alpha*(hs-ts)
	// The axis' own convective row of T⁻¹ is dense and the same on every
	// axis; the other two convective rows keep two entries each.
	own := 0.0 + (1-phi2/a2)*r[0] + gu/a2*r[1] + gv/a2*r[2] + gw/a2*r[3] + -g1/a2*r[4]
	// Off the axis column the acoustic rows agree: β·(0 − γ₁v) and
	// −β·(0 + γ₁v) are both −β·γ₁v.
	p1, p2, p3 := -beta*gu, -beta*gv, -beta*gw
	m1, m2, m3 := p1, p2, p3

	var c linalg.Vec5
	switch ax {
	case X:
		c[0] = own
		c[1] = 0.0 + -(w/rho)*r[0] + ir*r[3]
		c[2] = 0.0 + v/rho*r[0] + -ir*r[2]
		p1, m1 = beta*(snd-gu), -beta*(snd+gu)
		e.ap, e.am = [3]float64{alpha * (u + snd), av, aw}, [3]float64{alpha * (u - snd), av, aw}
		e.h = [NC]float64{h0, rho * w, rho * -v, hp, hm}
	case Y:
		c[0] = 0.0 + w/rho*r[0] + -ir*r[3]
		c[1] = own
		c[2] = 0.0 + -(u/rho)*r[0] + ir*r[1]
		p2, m2 = beta*(snd-gv), -beta*(snd+gv)
		e.ap, e.am = [3]float64{au, alpha * (v + snd), aw}, [3]float64{au, alpha * (v - snd), aw}
		e.h = [NC]float64{rho * -w, h0, rho * u, hp, hm}
	case Z:
		c[0] = 0.0 + -(v/rho)*r[0] + ir*r[2]
		c[1] = 0.0 + u/rho*r[0] + -ir*r[1]
		c[2] = own
		p3, m3 = beta*(snd-gw), -beta*(snd+gw)
		e.ap, e.am = [3]float64{au, av, alpha * (w + snd)}, [3]float64{au, av, alpha * (w - snd)}
		e.h = [NC]float64{rho * v, rho * -u, h0, hp, hm}
	}
	c[3] = 0.0 + beta*(phi2-ts)*r[0] + p1*r[1] + p2*r[2] + p3*r[3] + beta*g1*r[4]
	c[4] = 0.0 + beta*(phi2+ts)*r[0] + m1*r[1] + m2*r[2] + m3*r[3] + beta*g1*r[4]
	return c
}

// Back returns T·w for the eigensystem Forward(ax, s, …) left in e, its
// terms in MulVec5's column order after MulVec5's leading +0.
func (e *AxisEigen) Back(ax Axis, s *PointState, w *linalg.Vec5) linalg.Vec5 {
	rho, al := s.Rho, e.alpha
	var r linalg.Vec5
	switch ax {
	case X:
		r[0] = 0.0 + w[0] + al*w[3] + al*w[4]
		r[1] = 0.0 + s.U*w[0] + e.ap[0]*w[3] + e.am[0]*w[4]
		r[2] = 0.0 + s.V*w[0] + -rho*w[2] + e.ap[1]*w[3] + e.am[1]*w[4]
		r[3] = 0.0 + s.W*w[0] + rho*w[1] + e.ap[2]*w[3] + e.am[2]*w[4]
	case Y:
		r[0] = 0.0 + w[1] + al*w[3] + al*w[4]
		r[1] = 0.0 + s.U*w[1] + rho*w[2] + e.ap[0]*w[3] + e.am[0]*w[4]
		r[2] = 0.0 + s.V*w[1] + e.ap[1]*w[3] + e.am[1]*w[4]
		r[3] = 0.0 + -rho*w[0] + s.W*w[1] + e.ap[2]*w[3] + e.am[2]*w[4]
	case Z:
		r[0] = 0.0 + w[2] + al*w[3] + al*w[4]
		r[1] = 0.0 + -rho*w[1] + s.U*w[2] + e.ap[0]*w[3] + e.am[0]*w[4]
		r[2] = 0.0 + rho*w[0] + s.V*w[2] + e.ap[1]*w[3] + e.am[1]*w[4]
		r[3] = 0.0 + s.W*w[2] + e.ap[2]*w[3] + e.am[2]*w[4]
	default:
		ax.Unit() // not X, Y or Z: panics
	}
	r[4] = 0.0 + e.h[0]*w[0] + e.h[1]*w[1] + e.h[2]*w[2] + e.h[3]*w[3] + e.h[4]*w[4]
	return r
}
