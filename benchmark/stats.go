package main

import (
	"math"
	"sort"
)

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// percentileLadder is the set of tail percentiles a report may quote.
var percentileLadder = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile applies the reporting rule "the highest percentile
// with at least ten samples beyond it" to a sample of n: it returns the
// highest ladder entry p with n*(1-p/100) >= 10, or 50 when the sample
// supports no tail at all.
func tailPercentile(n int) float64 {
	best := percentileLadder[0]
	for _, p := range percentileLadder {
		// The epsilon absorbs the rounding of 1-p/100 (1000 samples
		// have exactly ten beyond p99).
		if float64(n)*(1-p/100)+1e-9 >= 10 {
			best = p
		}
	}
	return best
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the default "exclusive" method),
// because that is what the driver computes spreads with. Fewer than two
// samples give (x, x).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// iqrShare is the interquartile distance as a share of the median: the
// spread the A/A criterion bounds.
func iqrShare(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / med)
}
