package euler

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// axisVsGeneric evaluates the specialised and the generic transforms at
// one state: Λ, T⁻¹·r and T·r, flattened. ok is false where the bitwise
// claim does not apply — the state is not physical (both forms panic) or
// the generic T/T⁻¹ holds an Inf or NaN, whose product with a structural
// zero is NaN rather than ±0.
func axisVsGeneric(ax Axis, uc, r linalg.Vec5) (got, want [3 * NC]float64, ok bool) {
	for c := 0; c < NC; c++ {
		if math.IsNaN(uc[c]) || math.IsInf(uc[c], 0) || math.IsNaN(r[c]) || math.IsInf(r[c], 0) {
			return got, want, false
		}
	}
	if !(uc[0] > 0) || !(PrimFromCons(uc).P > 0) {
		return got, want, false
	}
	kx, ky, kz := ax.Unit()
	gen := EigensystemDir(kx, ky, kz, uc)
	for i := range gen.T {
		if math.IsNaN(gen.T[i]) || math.IsInf(gen.T[i], 0) || math.IsNaN(gen.Tinv[i]) || math.IsInf(gen.Tinv[i], 0) {
			return got, want, false
		}
	}
	var e AxisEigen
	s := Decompose(uc)
	fwd := e.Forward(ax, &s, &r)
	back := e.Back(ax, &s, &r)
	gf, gb := linalg.MulVec5(&gen.Tinv, &r), linalg.MulVec5(&gen.T, &r)
	for c := 0; c < NC; c++ {
		got[c], got[NC+c], got[2*NC+c] = e.Lambda[c], fwd[c], back[c]
		want[c], want[NC+c], want[2*NC+c] = gen.Lambda[c], gf[c], gb[c]
	}
	return got, want, true
}

func checkAxisBitwise(t *testing.T, uc, r linalg.Vec5) (compared bool) {
	t.Helper()
	for _, ax := range []Axis{X, Y, Z} {
		got, want, ok := axisVsGeneric(ax, uc, r)
		if !ok {
			return false
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("axis %v uc=%x r=%x: %s[%d] = %x, generic %x",
					ax, uc, r, [...]string{"Lambda", "Tinv·r", "T·r"}[i/NC], i%NC, got[i], want[i])
			}
		}
	}
	return true
}

// TestAxisEigenMatchesGeneric: on seeded physical states — ordinary,
// with velocity and right-hand-side components forced to ±0, and spread
// over many binades — the specialised transforms reproduce the generic
// eigensystem's outputs bit for bit on all three axes.
func TestAxisEigenMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	zeroOr := func(x float64) float64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		}
		return x
	}
	compared := 0
	for n := 0; n < 12000; n++ {
		p := randPrim(rng)
		scale := math.Ldexp(1, rng.Intn(81)-40)
		if n%3 == 0 {
			scale = 1
		}
		p.U, p.V, p.W = zeroOr(p.U*scale), zeroOr(p.V*scale), zeroOr(p.W*scale)
		p.Rho *= math.Ldexp(1, rng.Intn(41)-20)
		var r linalg.Vec5
		for c := range r {
			r[c] = zeroOr((rng.Float64() - 0.5) * scale)
		}
		if checkAxisBitwise(t, p.Cons(), r) {
			compared++
		}
	}
	if compared < 10000 {
		t.Fatalf("only %d states compared, want >= 10000", compared)
	}
}

// FuzzAxisEigen: any conserved state the generic form accepts, any
// finite right-hand side.
func FuzzAxisEigen(f *testing.F) {
	nz, sub := math.Copysign(0, -1), math.SmallestNonzeroFloat64
	f.Add(1.0, 0.5, -0.2, 0.1, 2.5, 1e-3, -2e-3, 0.0, 4e-3, 1e-3)
	f.Add(1.0, 0.0, nz, 0.0, 2.5, nz, 0.0, nz, 0.0, nz)
	f.Add(1.0, nz, 0.0, nz, 2.5, 1.0, nz, nz, 1.0, 0.0)
	f.Add(0.7, sub, -sub, 3*sub, 1.9, sub, -sub, 1.0, nz, -1.0)
	f.Add(2.0, -1.5, 1.5, -0.0, 9.0, -1.0, 1.0, -1.0, 1.0, -1.0)
	f.Add(1e-3, 1e-9, nz, -1e-9, 1e-2, 1e300, -1e300, 0.0, 1e-300, nz)
	f.Fuzz(func(t *testing.T, rho, mx, my, mz, en, r0, r1, r2, r3, r4 float64) {
		checkAxisBitwise(t, linalg.Vec5{rho, mx, my, mz, en}, linalg.Vec5{r0, r1, r2, r3, r4})
	})
}

func panicMessage(f func()) (msg string) {
	defer func() { msg = fmt.Sprint(recover()) }()
	f()
	return
}

// TestAxisEigenPanicsLikeGeneric: a bad axis and a non-physical state
// stop the specialised path — Decompose, then Forward — with the generic
// path's own message: the specialisation has no default axis and the
// once-per-point decomposition skips no state check. A non-physical
// state never gets as far as a PointState, so Forward cannot be handed
// one; a bad axis still panics from Axis.Unit() inside Forward.
func TestAxisEigenPanicsLikeGeneric(t *testing.T) {
	good := Prim{Rho: 1, U: 0.3, P: 1}.Cons()
	for _, tc := range []struct {
		name string
		ax   Axis
		uc   linalg.Vec5
		want string
	}{
		{"axis 3", Axis(3), good, "euler: bad axis 3"},
		{"axis -1", Axis(-1), good, "euler: bad axis -1"},
		{"zero density", Z, linalg.Vec5{0, 0, 0, 0, 1}, "euler: non-positive density 0"},
		{"negative density", Y, linalg.Vec5{-1, 0, 0, 0, 1}, "euler: non-positive density -1"},
		{"NaN density", X, linalg.Vec5{math.NaN(), 0, 0, 0, 1}, "euler: non-positive density NaN"},
		{"zero pressure", X, linalg.Vec5{1, 0, 0, 0, 0}, "euler: non-physical state rho=1 p=0"},
		{"negative pressure", Z, linalg.Vec5{1, 1, 0, 0, 0.25}, "euler: non-physical state rho=1 p=-0.1"},
	} {
		var e AxisEigen
		var r linalg.Vec5
		decomposed := false
		got := panicMessage(func() {
			s := Decompose(tc.uc)
			decomposed = true
			e.Forward(tc.ax, &s, &r)
		})
		gen := panicMessage(func() { Eigensystem(tc.ax, tc.uc) })
		if got != tc.want || gen != tc.want {
			t.Errorf("%s: specialised %q, generic %q, want %q", tc.name, got, gen, tc.want)
		}
		if physical := tc.uc == good; decomposed != physical {
			t.Errorf("%s: Decompose returned = %v, want %v", tc.name, decomposed, physical)
		}
	}
	s := Decompose(good)
	for _, ax := range []Axis{Axis(3), Axis(-1)} {
		var e AxisEigen
		var w linalg.Vec5
		want := panicMessage(func() { ax.Unit() })
		if got := panicMessage(func() { e.Back(ax, &s, &w) }); got != want {
			t.Errorf("Back(%d): %q, Unit panics %q", int(ax), got, want)
		}
	}
}
