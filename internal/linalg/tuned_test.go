package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// laneBands builds Lanes independent diagonally dominant tridiagonal
// systems of order n, returning the band arrays in lane-major form plus
// a scalar-reference copy.
func laneBands(rng *rand.Rand, n int) (a, b, c, d, aRef, bRef, cRef, dRef [Lanes][]float64) {
	for l := 0; l < Lanes; l++ {
		al, bl, cl, _, dl := diagDominant(rng, n)
		a[l], b[l], c[l], d[l] = al, bl, cl, dl
		aRef[l] = append([]float64(nil), al...)
		bRef[l] = append([]float64(nil), bl...)
		cRef[l] = append([]float64(nil), cl...)
		dRef[l] = append([]float64(nil), dl...)
	}
	return
}

func firstBitMismatch(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: bit mismatch at [%d]: %v vs %v", name, i, got[i], want[i])
		}
	}
}

func TestSolveTridiag5MatchesScalarBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 4, 17, 64, 129} {
		a, b, c, d, aRef, bRef, cRef, dRef := laneBands(rng, n)
		SolveTridiag5(&a, &b, &c, &d, n)
		for l := 0; l < Lanes; l++ {
			SolveTridiag(aRef[l], bRef[l], cRef[l], dRef[l])
			firstBitMismatch(t, "d", d[l], dRef[l])
			firstBitMismatch(t, "c", c[l], cRef[l])
		}
	}
	// n == 0 is a no-op even on nil lanes.
	var empty [Lanes][]float64
	SolveTridiag5(&empty, &empty, &empty, &empty, 0)
}

func TestSolveTridiag5LongerLanes(t *testing.T) {
	// Lanes longer than n must only have their first n entries touched.
	rng := rand.New(rand.NewSource(12))
	const n, extra = 9, 4
	a, b, c, d, aRef, bRef, cRef, dRef := laneBands(rng, n+extra)
	SolveTridiag5(&a, &b, &c, &d, n)
	for l := 0; l < Lanes; l++ {
		SolveTridiag(aRef[l][:n], bRef[l][:n], cRef[l][:n], dRef[l][:n])
		firstBitMismatch(t, "d head", d[l][:n], dRef[l][:n])
		firstBitMismatch(t, "d tail", d[l][n:], dRef[l][n:])
		firstBitMismatch(t, "c tail", c[l][n:], cRef[l][n:])
	}
}

func TestSolveTridiag5Property(t *testing.T) {
	f := func(seed int64, nu uint8) bool {
		n := int(nu%60) + 1
		rng := rand.New(rand.NewSource(seed))
		a, b, c, d, aRef, bRef, cRef, dRef := laneBands(rng, n)
		SolveTridiag5(&a, &b, &c, &d, n)
		for l := 0; l < Lanes; l++ {
			SolveTridiag(aRef[l], bRef[l], cRef[l], dRef[l])
			for i := 0; i < n; i++ {
				if math.Float64bits(d[l][i]) != math.Float64bits(dRef[l][i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// pentaBands builds Lanes diagonally dominant pentadiagonal systems.
func pentaBands(rng *rand.Rand, n int) (e, a, b, c, f, d [Lanes][]float64) {
	for l := 0; l < Lanes; l++ {
		e[l] = make([]float64, n)
		a[l] = make([]float64, n)
		b[l] = make([]float64, n)
		c[l] = make([]float64, n)
		f[l] = make([]float64, n)
		d[l] = make([]float64, n)
		for i := 0; i < n; i++ {
			e[l][i] = rng.Float64()*0.5 - 0.25
			a[l][i] = rng.Float64() - 0.5
			c[l][i] = rng.Float64() - 0.5
			f[l][i] = rng.Float64()*0.5 - 0.25
			b[l][i] = 3 + rng.Float64()
			d[l][i] = rng.Float64()*10 - 5
		}
	}
	return
}

func clone5(x *[Lanes][]float64) [Lanes][]float64 {
	var out [Lanes][]float64
	for l := range x {
		out[l] = append([]float64(nil), x[l]...)
	}
	return out
}

func TestSolvePentadiag5MatchesScalarBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 2, 3, 4, 5, 17, 60} {
		e, a, b, c, f, d := pentaBands(rng, n)
		eR, aR, bR, cR, fR, dR := clone5(&e), clone5(&a), clone5(&b), clone5(&c), clone5(&f), clone5(&d)
		SolvePentadiag5(&e, &a, &b, &c, &f, &d, n)
		for l := 0; l < Lanes; l++ {
			SolvePentadiag(eR[l], aR[l], bR[l], cR[l], fR[l], dR[l])
			firstBitMismatch(t, "d", d[l], dR[l])
		}
	}
	var empty [Lanes][]float64
	SolvePentadiag5(&empty, &empty, &empty, &empty, &empty, &empty, 0)
}

// TestLaneSolversAllocFree pins that the lane solvers allocate nothing
// per call: they work in the caller's bands and keep no scratch.
func TestLaneSolversAllocFree(t *testing.T) {
	const n = 32
	rng := rand.New(rand.NewSource(16))
	a, b, c, d, _, _, _, _ := laneBands(rng, n)
	if got := testing.AllocsPerRun(20, func() { SolveTridiag5(&a, &b, &c, &d, n) }); got != 0 {
		t.Errorf("SolveTridiag5 allocates %v per call", got)
	}
	e, pa, pb, pc, f, pd := pentaBands(rng, n)
	if got := testing.AllocsPerRun(20, func() { SolvePentadiag5(&e, &pa, &pb, &pc, &f, &pd, n) }); got != 0 {
		t.Errorf("SolvePentadiag5 allocates %v per call", got)
	}
}

// TestPlanarValidationBeforeWrites is the regression test for the
// partial-write panic: an n*nsys product that overflowed used to slip
// past the length check and blow up mid-elimination, after row 0 had
// already been scaled. The planar solver must now reject the shape
// before touching a single element.
func TestPlanarValidationBeforeWrites(t *testing.T) {
	big := (int(^uint(0)>>1))/3 + 1 // 3*big overflows
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{6, 7, 8, 9, 10}
	c := []float64{11, 12, 13, 14, 15}
	d := []float64{16, 17, 18, 19, 20}
	aR := append([]float64(nil), a...)
	bR := append([]float64(nil), b...)
	cR := append([]float64(nil), c...)
	dR := append([]float64(nil), d...)
	defer func() {
		if recover() == nil {
			t.Error("overflowing shape must panic")
		}
		firstBitMismatch(t, "a", a, aR)
		firstBitMismatch(t, "b", b, bR)
		firstBitMismatch(t, "c", c, cR)
		firstBitMismatch(t, "d", d, dR)
	}()
	SolveTridiagPlanar(a, b, c, d, 3, big)
}

// TestLaneSolversValidateBeforeWrites pins the same property for the
// lane-batched solvers: a short lane panics with every lane untouched.
func TestLaneSolversValidateBeforeWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a, b, c, d, aR, bR, cR, dR := laneBands(rng, 6)
	d[4] = d[4][:3] // one short lane
	dR[4] = dR[4][:3]
	func() {
		defer func() {
			if recover() == nil {
				t.Error("short lane must panic")
			}
			for l := 0; l < Lanes; l++ {
				firstBitMismatch(t, "a", a[l], aR[l])
				firstBitMismatch(t, "b", b[l], bR[l])
				firstBitMismatch(t, "c", c[l], cR[l])
				firstBitMismatch(t, "d", d[l], dR[l])
			}
		}()
		SolveTridiag5(&a, &b, &c, &d, 6)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative n must panic")
			}
		}()
		SolveTridiag5(&a, &b, &c, &d, -1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("pentadiag short lane must panic")
			}
		}()
		SolvePentadiag5(&a, &a, &b, &c, &a, &d, 6)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("pentadiag negative n must panic")
			}
		}()
		SolvePentadiag5(&a, &a, &b, &c, &a, &d, -2)
	}()
}
