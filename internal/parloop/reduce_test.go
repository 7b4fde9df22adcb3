package parloop

import (
	"math"
	"testing"
)

func TestSumFloat64Exact(t *testing.T) {
	for _, tm := range teams(t) {
		for _, n := range []int{0, 1, 2, 100, 12345} {
			got := SumFloat64(tm, n, func(i int) float64 { return float64(i) })
			want := float64(n) * float64(n-1) / 2
			if n == 0 {
				want = 0
			}
			if got != want {
				t.Errorf("workers=%d n=%d: sum = %g, want %g", tm.Workers(), n, got, want)
			}
		}
	}
}

func TestSumDeterministicPerTeamSize(t *testing.T) {
	// For a fixed team size the reduction order is fixed, so repeated
	// runs produce bit-identical results even for ill-conditioned sums.
	vals := make([]float64, 10_000)
	for i := range vals {
		vals[i] = math.Sin(float64(i)) * math.Pow(10, float64(i%30)-15)
	}
	for _, tm := range teams(t) {
		first := SumFloat64(tm, len(vals), func(i int) float64 { return vals[i] })
		for rep := 0; rep < 20; rep++ {
			got := SumFloat64(tm, len(vals), func(i int) float64 { return vals[i] })
			if got != first {
				t.Fatalf("workers=%d: run %d sum %x differs from first %x",
					tm.Workers(), rep, math.Float64bits(got), math.Float64bits(first))
			}
		}
	}
}

// The partials are added in worker order: the sum is exactly the
// left-to-right addition of each worker's serial Static share, bit for
// bit, even when the values make float addition order-sensitive.
func TestSumFloat64CombinesInWorkerOrder(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = math.Sin(float64(i)) * math.Pow(10, float64(i%30)-15)
	}
	for _, tm := range teams(t) {
		want := 0.0
		for w := 0; w < tm.Workers(); w++ {
			lo, hi := StaticRange(len(vals), tm.Workers(), w)
			part := 0.0
			for i := lo; i < hi; i++ {
				part += vals[i]
			}
			if w == 0 {
				want = part
			} else {
				want += part
			}
		}
		got := SumFloat64(tm, len(vals), func(i int) float64 { return vals[i] })
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("workers=%d: sum %x, want worker-ordered %x", tm.Workers(), math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// An empty range is the identity, +0, and never calls the body.
func TestSumFloat64IdentityOnEmpty(t *testing.T) {
	for _, tm := range teams(t) {
		for _, n := range []int{0, -3} {
			got := SumFloat64(tm, n, func(int) float64 { panic("body on empty") })
			if math.Float64bits(got) != 0 {
				t.Errorf("workers=%d n=%d: empty sum = %v, want +0", tm.Workers(), n, got)
			}
		}
	}
}
