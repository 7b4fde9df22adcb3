package main

import (
	"math"
	"testing"
)

func TestTailPercentileRule(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	cases := []struct {
		n    int
		want float64
	}{
		{0, 50}, {10, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75},
		{100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{40, 10, 30, 20}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 25}, {100, 40}, {25, 17.5}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("percentile reordered its input")
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of an empty sample should be 0")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 3 = %g, %g, want 1, 4", q1, q3)
	}
	if got := iqrShare(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrShare = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}
