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
	// Poisoned outputs: an element the in-place form skipped stays NaN.
	e, s, fwd, back := poisonedEigen(), poisonedState, poisonedVec, poisonedVec
	DecomposeInto(&s, &uc)
	e.Forward(ax, &s, &r, &fwd)
	e.Back(ax, &s, &r, &back)
	gf, gb := linalg.MulVec5(&gen.Tinv, &r), linalg.MulVec5(&gen.T, &r)
	for c := 0; c < NC; c++ {
		got[c], got[NC+c], got[2*NC+c] = e.Lambda[c], fwd[c], back[c]
		want[c], want[NC+c], want[2*NC+c] = gen.Lambda[c], gf[c], gb[c]
	}
	return got, want, true
}

// poison is a NaN no arithmetic produces, so a result element still
// holding it was never stored.
var (
	poison        = math.Float64frombits(0x7ff8dead0000beef)
	poisonedVec   = linalg.Vec5{poison, poison, poison, poison, poison}
	poisonedState = PointState{Prim{poison, poison, poison, poison, poison}, poison}
)

func poisonedEigen() AxisEigen {
	return AxisEigen{Lambda: poisonedVec, alpha: poison, ap: [3]float64{poison, poison, poison},
		am: [3]float64{poison, poison, poison}, h: poisonedVec}
}

// bitsEqual compares two values of a float-only struct or array type bit
// for bit: Sprint round-trips a float and keeps a zero's sign, and unlike
// == it equates a NaN with a NaN.
func bitsEqual[T comparable](a, b T) bool {
	return fmt.Sprint(a) == fmt.Sprint(b)
}

func checkAxisBitwise(t *testing.T, uc, r linalg.Vec5) (compared bool) {
	t.Helper()
	for _, ax := range []Axis{X, Y, Z} {
		got, want, ok := axisVsGeneric(ax, uc, r)
		if !ok {
			return false
		}
		if !lambdaLanesShared(got[:NC]) {
			t.Fatalf("axis %v uc=%x: Lambda %x, lanes 0-2 differ", ax, uc, got[:NC])
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

// lambdaLanesShared reports whether Λ[0], Λ[1] and Λ[2] are one value
// bit for bit: the served sweep (f3d's sweepLineModeTuned) builds one band
// for the three convective lanes and eliminates it once.
func lambdaLanesShared(lambda []float64) bool {
	b := math.Float64bits(lambda[0])
	return math.Float64bits(lambda[1]) == b && math.Float64bits(lambda[2]) == b
}

// TestAxisEigenLambdaLanesShared: on every axis Forward's Λ lanes 0-2
// agree bit for bit, on ordinary states, where θ is −0, and where θ+a or
// θ−a changes sign (axis velocity within a few ulps of ∓a).
func TestAxisEigenLambdaLanesShared(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	nz := math.Copysign(0, -1)
	seen := map[string]bool{}
	for n := 0; n < 3000; n++ {
		p := randPrim(rng)
		for _, ax := range []Axis{X, Y, Z} {
			q := p
			along := [3]*float64{&q.U, &q.V, &q.W}
			a := math.Sqrt(Gamma * q.P / q.Rho)
			switch n % 4 {
			case 0: // −0 along the axis, ≤ 0 across it: every term of θ is −0
				q.U, q.V, q.W = -math.Abs(q.U), -math.Abs(q.V), -math.Abs(q.W)
				*along[ax] = nz
			case 1:
				*along[ax] = a * (1 + float64(rng.Intn(9)-4)*0x1p-50)
			case 2:
				*along[ax] = -a * (1 + float64(rng.Intn(9)-4)*0x1p-50)
			}
			uc := q.Cons()
			var s PointState
			var e AxisEigen
			var r, c linalg.Vec5
			DecomposeInto(&s, &uc)
			e.Forward(ax, &s, &r, &c)
			if !lambdaLanesShared(e.Lambda[:]) {
				t.Fatalf("axis %v uc=%x: Lambda %x, lanes 0-2 differ", ax, uc, e.Lambda)
			}
			seen["theta=-0"] = seen["theta=-0"] || math.Float64bits(e.Lambda[0]) == math.Float64bits(nz)
			switch n % 4 {
			case 1:
				seen[fmt.Sprint("theta-a>=0 ", e.Lambda[4] >= 0)] = true
			case 2:
				seen[fmt.Sprint("theta+a>=0 ", e.Lambda[3] >= 0)] = true
			}
		}
	}
	if len(seen) != 5 || !seen["theta=-0"] {
		t.Fatalf("edge states reached: %v, want theta=-0 and both signs of theta+a and theta-a", seen)
	}
}

// FuzzAxisEigen: any conserved state the generic form accepts, any
// finite right-hand side; Λ's lanes 0-2 stay one value.
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
// stop the specialised path — DecomposeInto, then Forward — with the generic
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
		var s PointState
		var r, c linalg.Vec5
		decomposed := false
		got := panicMessage(func() {
			DecomposeInto(&s, &tc.uc)
			decomposed = true
			e.Forward(tc.ax, &s, &r, &c)
		})
		gen := panicMessage(func() { Eigensystem(tc.ax, tc.uc) })
		if got != tc.want || gen != tc.want {
			t.Errorf("%s: specialised %q, generic %q, want %q", tc.name, got, gen, tc.want)
		}
		if physical := tc.uc == good; decomposed != physical {
			t.Errorf("%s: DecomposeInto returned = %v, want %v", tc.name, decomposed, physical)
		}
	}
	var s PointState
	DecomposeInto(&s, &good)
	for _, ax := range []Axis{Axis(3), Axis(-1)} {
		var e AxisEigen
		var w, r linalg.Vec5
		want := panicMessage(func() { ax.Unit() })
		if got := panicMessage(func() { e.Back(ax, &s, &w, &r) }); got != want {
			t.Errorf("Back(%d): %q, Unit panics %q", int(ax), got, want)
		}
	}
}

// TestInPlaceResultsWriteEveryElement: a by-element store can silently
// skip an element where the whole-value assignment it replaced could
// not. Forward and Back into NaN-poisoned outputs, and through one
// AxisEigen reused X → Y → Z → X, must leave exactly what fresh zeroed
// outputs get, on every axis; so must DecomposeInto.
func TestInPlaceResultsWriteEveryElement(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	reused := poisonedEigen()
	for n := 0; n < 400; n++ {
		uc := randPrim(rng).Cons()
		var r linalg.Vec5
		for c := range r {
			r[c] = rng.Float64() - 0.5
		}
		var s0 PointState
		s1 := poisonedState
		DecomposeInto(&s0, &uc)
		DecomposeInto(&s1, &uc)
		if !bitsEqual(s0, s1) {
			t.Fatalf("DecomposeInto(%x): zeroed %x, poisoned %x", uc, s0, s1)
		}
		for _, ax := range []Axis{X, Y, Z, X} {
			var e0 AxisEigen
			var f0, b0 linalg.Vec5
			e0.Forward(ax, &s0, &r, &f0)
			e0.Back(ax, &s0, &r, &b0)
			f1, b1 := poisonedVec, poisonedVec
			reused.Forward(ax, &s0, &r, &f1)
			reused.Back(ax, &s0, &r, &b1)
			if !bitsEqual(e0, reused) || !bitsEqual(f0, f1) || !bitsEqual(b0, b1) {
				t.Fatalf("axis %v: fresh %x %x %x, reused/poisoned %x %x %x", ax, e0, f0, b0, reused, f1, b1)
			}
		}
	}
}

// TestDecomposeIntoMatchesPrimFromCons: the in-place decomposition and
// the by-value pair the scalar reference calls agree bit for bit, and
// panic for panic with the same message (ρ ≤ 0, NaN ρ, p ≤ 0).
func TestDecomposeIntoMatchesPrimFromCons(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	bad := []linalg.Vec5{
		{0, 0, 0, 0, 1}, {-1, 0, 0, 0, 1}, {math.NaN(), 0, 0, 0, 1},
		{1, 0, 0, 0, 0}, {1, 1, 0, 0, 0.25}, {1, 0, 0, 0, math.Inf(-1)},
	}
	panics := 0
	for n := 0; n < 20000; n++ {
		p := randPrim(rng)
		p.Rho *= math.Ldexp(1, rng.Intn(41)-20)
		scale := math.Ldexp(1, rng.Intn(81)-40)
		p.U, p.V, p.W = p.U*scale, p.V*scale, p.W*scale
		uc := p.Cons()
		if n%4 == 0 { // arbitrary energy: about half of these are non-physical
			uc[4] *= rng.Float64() * 2
		}
		if n < len(bad) {
			uc = bad[n]
		}
		var want, got PointState
		wantMsg := panicMessage(func() {
			q := PrimFromCons(uc)
			want = PointState{q, q.SoundSpeed()}
		})
		gotMsg := panicMessage(func() { DecomposeInto(&got, &uc) })
		panicked := wantMsg != "<nil>"
		if gotMsg != wantMsg || !panicked && !bitsEqual(got, want) {
			t.Fatalf("uc=%x: in place %x (%s), PrimFromCons + SoundSpeed %x (%s)", uc, got, gotMsg, want, wantMsg)
		}
		if n < len(bad) && !panicked {
			t.Fatalf("uc=%v is non-physical and did not panic", uc)
		}
		if panicked {
			panics++
		}
	}
	if panics < 1000 || panics > 10000 {
		t.Fatalf("%d of 20000 states panicked, want a real share of both kinds", panics)
	}
}

// TestAxisEigenOutputMayAliasInput: Forward reads r, and Back w, in full
// before storing anything, so a caller may transform a vector in place.
func TestAxisEigenOutputMayAliasInput(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for n := 0; n < 300; n++ {
		var s PointState
		uc := randPrim(rng).Cons()
		DecomposeInto(&s, &uc)
		r := linalg.Vec5{rng.Float64(), -rng.Float64(), rng.Float64(), 0.5, -0.25}
		for _, ax := range []Axis{X, Y, Z} {
			var e AxisEigen
			var fwd, back linalg.Vec5
			e.Forward(ax, &s, &r, &fwd)
			e.Back(ax, &s, &r, &back)
			inF, inB := r, r
			e.Forward(ax, &s, &inF, &inF)
			e.Back(ax, &s, &inB, &inB)
			if !bitsEqual(inF, fwd) || !bitsEqual(inB, back) {
				t.Fatalf("axis %v: in place %x %x, distinct %x %x", ax, inF, inB, fwd, back)
			}
		}
	}
}
