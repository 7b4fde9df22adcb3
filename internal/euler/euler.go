// Package euler implements the 3-D compressible Euler equations in
// conservative form: state conversions, fluxes, flux Jacobians and the
// Pulliam–Chaussee eigensystem (similarity transforms that diagonalize
// the flux Jacobians) used by the diagonalized approximate-factorization
// implicit scheme of the F3D reproduction.
//
// The conserved vector is U = (ρ, ρu, ρv, ρw, e) with total energy per
// unit volume e = p/(γ−1) + ρ(u²+v²+w²)/2 and γ = 1.4.
package euler

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// Gamma is the ratio of specific heats for air.
const Gamma = 1.4

// NC is the number of conserved variables.
const NC = 5

// NonPhysical is the panic value of a state with non-positive density
// or pressure, a diverged solution; f3d.TryStep recovers it.
type NonPhysical string

func (e NonPhysical) Error() string { return string(e) }

// Axis identifies a coordinate direction.
type Axis int

const (
	X Axis = iota
	Y
	Z
)

// String implements fmt.Stringer.
func (a Axis) String() string {
	if names := [...]string{"x", "y", "z"}; a >= 0 && int(a) < len(names) {
		return names[a]
	}
	return fmt.Sprintf("Axis(%d)", int(a))
}

// Unit returns the unit vector along the axis.
func (a Axis) Unit() (kx, ky, kz float64) {
	switch a {
	case X:
		return 1, 0, 0
	case Y:
		return 0, 1, 0
	case Z:
		return 0, 0, 1
	default:
		panic(fmt.Sprintf("euler: bad axis %d", int(a)))
	}
}

// Prim is the primitive state (density, velocity, pressure).
type Prim struct {
	Rho, U, V, W, P float64
}

// Cons returns the conserved vector for the primitive state.
func (p Prim) Cons() linalg.Vec5 {
	e := p.P/(Gamma-1) + 0.5*p.Rho*(p.U*p.U+p.V*p.V+p.W*p.W)
	return linalg.Vec5{p.Rho, p.Rho * p.U, p.Rho * p.V, p.Rho * p.W, e}
}

// PrimFromCons converts a conserved vector to primitive variables.
// It panics with a NonPhysical if density is not positive.
func PrimFromCons(u linalg.Vec5) (p Prim) {
	p.fromCons(&u)
	return p
}

// fromCons is PrimFromCons stored field by field into p.
func (p *Prim) fromCons(u *linalg.Vec5) {
	rho := u[0]
	if rho <= 0 || math.IsNaN(rho) {
		panic(NonPhysical(fmt.Sprintf("euler: non-positive density %g", rho)))
	}
	inv := 1 / rho
	vu, vv, vw := u[1]*inv, u[2]*inv, u[3]*inv
	p.Rho, p.U, p.V, p.W = rho, vu, vv, vw
	p.P = (Gamma - 1) * (u[4] - 0.5*rho*(vu*vu+vv*vv+vw*vw))
}

// SoundSpeed returns a = sqrt(γ p / ρ). It panics on a non-physical
// (non-positive pressure or density) state.
func (p Prim) SoundSpeed() float64 { return soundSpeed(p.Rho, p.P) }

func soundSpeed(rho, p float64) float64 {
	if p <= 0 || rho <= 0 {
		panic(NonPhysical(fmt.Sprintf("euler: non-physical state rho=%g p=%g", rho, p)))
	}
	return math.Sqrt(Gamma * p / rho)
}

// PointState is the axis-independent decomposition of a conserved
// state: the primitives and the sound speed A. Every flux, spectral
// radius and eigensystem along any axis starts from these six values,
// so a solver may keep them for as long as the state does not change.
type PointState struct {
	Prim
	A float64
}

// DecomposeInto stores the decomposition of conserved state u in s,
// field by field (DESIGN.md §8, "results are written where they live").
// It is PrimFromCons followed by SoundSpeed — their expressions, their
// panics — and the only way a PointState is built.
func DecomposeInto(s *PointState, u *linalg.Vec5) {
	s.Prim.fromCons(u)
	s.A = soundSpeed(s.Rho, s.P)
}

// Velocity returns the velocity component along the axis.
func (p Prim) Velocity(a Axis) float64 {
	switch a {
	case X:
		return p.U
	case Y:
		return p.V
	case Z:
		return p.W
	default:
		panic(fmt.Sprintf("euler: bad axis %d", int(a)))
	}
}

// Flux returns the inviscid flux vector along the axis for conserved
// state u.
func Flux(a Axis, u linalg.Vec5) linalg.Vec5 {
	kx, ky, kz := a.Unit()
	return FluxDir(kx, ky, kz, u)
}

// FluxDir returns the directional inviscid flux kx·F + ky·G + kz·H for
// conserved state u — the flux through a face with (not necessarily
// unit) normal (kx, ky, kz), as appears in generalized-coordinate
// formulations.
func FluxDir(kx, ky, kz float64, u linalg.Vec5) (f linalg.Vec5) {
	p := PrimFromCons(u)
	FluxDirPrimInto(&f, kx, ky, kz, &u, &p)
	return f
}

// FluxDirPrimInto stores in f, element by element, FluxDir of a state
// whose primitive decomposition has already been computed: p must equal
// PrimFromCons(*u) (the Prim of a PointState). These are FluxDir's only
// expressions, so results are bitwise identical. f must not overlap u
// or p.
func FluxDirPrimInto(f *linalg.Vec5, kx, ky, kz float64, u *linalg.Vec5, p *Prim) {
	theta, pr := kx*p.U+ky*p.V+kz*p.W, p.P
	f[0] = u[0] * theta
	f[1] = u[1]*theta + kx*pr
	f[2] = u[2]*theta + ky*pr
	f[3] = u[3]*theta + kz*pr
	f[4] = (u[4] + pr) * theta
}

// SpectralRadius returns |velocity| + a along the axis: the largest
// characteristic speed, used for time-step selection and scalar
// dissipation scaling.
func SpectralRadius(a Axis, u linalg.Vec5) float64 {
	p := PrimFromCons(u)
	return math.Abs(p.Velocity(a)) + p.SoundSpeed()
}

// SpectralRadiusDir returns |k·velocity| + a·|k| for a general (not
// necessarily unit) direction.
func SpectralRadiusDir(kx, ky, kz float64, u linalg.Vec5) float64 {
	p := PrimFromCons(u)
	theta := kx*p.U + ky*p.V + kz*p.W
	norm := math.Sqrt(kx*kx + ky*ky + kz*kz)
	return math.Abs(theta) + norm*p.SoundSpeed()
}

// Jacobian returns the analytic flux Jacobian A = ∂F/∂U along the axis
// for conserved state uc. Derivation (θ = k·velocity, γ₁ = γ−1,
// φ² = γ₁(u²+v²+w²)/2, H = (e+p)/ρ):
//
//	row 0: [0, kx, ky, kz, 0]
//	row i: [kᵢφ² − uᵢθ,  δᵢⱼθ + uᵢkⱼ − γ₁kᵢuⱼ, …,  γ₁kᵢ]
//	row 4: [θ(φ² − H),  Hkⱼ − γ₁uⱼθ, …,  γθ]
func Jacobian(a Axis, uc linalg.Vec5) linalg.Mat5 {
	kx, ky, kz := a.Unit()
	return JacobianDir(kx, ky, kz, uc)
}

// JacobianDir returns the directional flux Jacobian ∂(FluxDir)/∂U for a
// general direction (kx, ky, kz).
func JacobianDir(kx, ky, kz float64, uc linalg.Vec5) linalg.Mat5 {
	p := PrimFromCons(uc)
	u, v, w := p.U, p.V, p.W
	k := [3]float64{kx, ky, kz}
	vel := [3]float64{u, v, w}
	theta := kx*u + ky*v + kz*w
	g1 := Gamma - 1
	phi2 := 0.5 * g1 * (u*u + v*v + w*w)
	h := (uc[4] + p.P) / p.Rho

	var m linalg.Mat5
	m[0*5+1], m[0*5+2], m[0*5+3] = kx, ky, kz
	for i := 0; i < 3; i++ {
		r := (i + 1) * 5
		m[r+0] = k[i]*phi2 - vel[i]*theta
		for j := 0; j < 3; j++ {
			m[r+1+j] = vel[i]*k[j] - g1*k[i]*vel[j]
			if i == j {
				m[r+1+j] += theta
			}
		}
		m[r+4] = g1 * k[i]
	}
	m[4*5+0] = theta * (phi2 - h)
	for j := 0; j < 3; j++ {
		m[4*5+1+j] = h*k[j] - g1*vel[j]*theta
	}
	m[4*5+4] = Gamma * theta
	return m
}

// Eigen holds the similarity transform that diagonalizes a flux
// Jacobian: A = T · diag(Λ) · Tinv, with Λ = (θ, θ, θ, θ+a, θ−a).
type Eigen struct {
	Lambda linalg.Vec5
	T      linalg.Mat5
	Tinv   linalg.Mat5
}

// Eigensystem returns the Pulliam–Chaussee eigensystem of the flux
// Jacobian along the axis at conserved state uc. The transforms are
// analytic; package tests verify T·Tinv = I and T·Λ·Tinv = Jacobian to
// rounding.
func Eigensystem(a Axis, uc linalg.Vec5) Eigen {
	kx, ky, kz := a.Unit()
	return EigensystemDir(kx, ky, kz, uc)
}

// EigensystemDir returns the Pulliam–Chaussee eigensystem for a general
// unit direction (kx, ky, kz): the similarity transform that
// diagonalizes JacobianDir for that direction. The direction must have
// unit length (the transforms assume k·k = 1); normalize metrics before
// calling.
func EigensystemDir(kx, ky, kz float64, uc linalg.Vec5) Eigen {
	var e Eigen
	EigensystemDirInto(&e, kx, ky, kz, uc)
	return e
}

// EigensystemDirInto is EigensystemDir computed directly into e; every
// entry of Lambda, T and Tinv is written, so e may hold stale data.
func EigensystemDirInto(e *Eigen, kx, ky, kz float64, uc linalg.Vec5) {
	if d := kx*kx + ky*ky + kz*kz; math.Abs(d-1) > 1e-9 {
		panic(fmt.Sprintf("euler: EigensystemDir needs a unit direction, |k|² = %g", d))
	}
	p := PrimFromCons(uc)
	u, v, w := p.U, p.V, p.W
	snd := p.SoundSpeed()
	rho := p.Rho
	theta := kx*u + ky*v + kz*w
	g1 := Gamma - 1
	phi2 := 0.5 * g1 * (u*u + v*v + w*w)
	alpha := rho / (math.Sqrt2 * snd)
	beta := 1 / (math.Sqrt2 * rho * snd)
	a2 := snd * snd

	e.Lambda = linalg.Vec5{theta, theta, theta, theta + snd, theta - snd}

	set := func(m *linalg.Mat5, r, c int, v float64) { m[r*5+c] = v }

	// Right eigenvectors (columns of T).
	T := &e.T
	// Column 0 (convective, k̃x family).
	set(T, 0, 0, kx)
	set(T, 1, 0, kx*u)
	set(T, 2, 0, kx*v+kz*rho)
	set(T, 3, 0, kx*w-ky*rho)
	set(T, 4, 0, kx*phi2/g1+rho*(kz*v-ky*w))
	// Column 1 (convective, k̃y family).
	set(T, 0, 1, ky)
	set(T, 1, 1, ky*u-kz*rho)
	set(T, 2, 1, ky*v)
	set(T, 3, 1, ky*w+kx*rho)
	set(T, 4, 1, ky*phi2/g1+rho*(kx*w-kz*u))
	// Column 2 (convective, k̃z family).
	set(T, 0, 2, kz)
	set(T, 1, 2, kz*u+ky*rho)
	set(T, 2, 2, kz*v-kx*rho)
	set(T, 3, 2, kz*w)
	set(T, 4, 2, kz*phi2/g1+rho*(ky*u-kx*v))
	// Column 3 (acoustic, θ+a).
	set(T, 0, 3, alpha)
	set(T, 1, 3, alpha*(u+kx*snd))
	set(T, 2, 3, alpha*(v+ky*snd))
	set(T, 3, 3, alpha*(w+kz*snd))
	set(T, 4, 3, alpha*((phi2+a2)/g1+theta*snd))
	// Column 4 (acoustic, θ−a).
	set(T, 0, 4, alpha)
	set(T, 1, 4, alpha*(u-kx*snd))
	set(T, 2, 4, alpha*(v-ky*snd))
	set(T, 3, 4, alpha*(w-kz*snd))
	set(T, 4, 4, alpha*((phi2+a2)/g1-theta*snd))

	// Left eigenvectors (rows of Tinv).
	Ti := &e.Tinv
	// Row 0.
	set(Ti, 0, 0, kx*(1-phi2/a2)-(kz*v-ky*w)/rho)
	set(Ti, 0, 1, kx*g1*u/a2)
	set(Ti, 0, 2, kx*g1*v/a2+kz/rho)
	set(Ti, 0, 3, kx*g1*w/a2-ky/rho)
	set(Ti, 0, 4, -kx*g1/a2)
	// Row 1.
	set(Ti, 1, 0, ky*(1-phi2/a2)-(kx*w-kz*u)/rho)
	set(Ti, 1, 1, ky*g1*u/a2-kz/rho)
	set(Ti, 1, 2, ky*g1*v/a2)
	set(Ti, 1, 3, ky*g1*w/a2+kx/rho)
	set(Ti, 1, 4, -ky*g1/a2)
	// Row 2.
	set(Ti, 2, 0, kz*(1-phi2/a2)-(ky*u-kx*v)/rho)
	set(Ti, 2, 1, kz*g1*u/a2+ky/rho)
	set(Ti, 2, 2, kz*g1*v/a2-kx/rho)
	set(Ti, 2, 3, kz*g1*w/a2)
	set(Ti, 2, 4, -kz*g1/a2)
	// Row 3 (acoustic, θ+a).
	set(Ti, 3, 0, beta*(phi2-theta*snd))
	set(Ti, 3, 1, beta*(kx*snd-g1*u))
	set(Ti, 3, 2, beta*(ky*snd-g1*v))
	set(Ti, 3, 3, beta*(kz*snd-g1*w))
	set(Ti, 3, 4, beta*g1)
	// Row 4 (acoustic, θ−a).
	set(Ti, 4, 0, beta*(phi2+theta*snd))
	set(Ti, 4, 1, -beta*(kx*snd+g1*u))
	set(Ti, 4, 2, -beta*(ky*snd+g1*v))
	set(Ti, 4, 3, -beta*(kz*snd+g1*w))
	set(Ti, 4, 4, beta*g1)
}
