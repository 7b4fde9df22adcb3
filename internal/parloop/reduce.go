package parloop

// SumFloat64 reduces body(i) summed over [0, n). Each worker sums its
// Static-schedule share from zero, and the per-worker partials are
// added in ascending worker order. Because the partition and the
// combination order are deterministic for a fixed team size, the
// result is bit-reproducible from run to run — the property the paper
// relies on when it requires parallelization "without introducing any
// changes to the algorithm or the convergence properties of the
// codes".
func SumFloat64(t *Team, n int, body func(i int) float64) float64 {
	if n <= 0 {
		return 0
	}
	sum := func(lo, hi int) float64 {
		acc := 0.0
		for i := lo; i < hi; i++ {
			acc += body(i)
		}
		return acc
	}
	if t.workers == 1 {
		var acc float64
		t.runSerial(func() { acc = sum(0, n) })
		return acc
	}
	partials := make([]float64, t.workers)
	t.fork(func(w int) {
		if lo, hi := StaticRange(n, t.workers, w); lo < hi {
			t.runChunk(w, lo, hi, func(lo, hi int) { partials[w] = sum(lo, hi) })
		}
	})
	acc := partials[0]
	for _, p := range partials[1:] {
		acc += p
	}
	return acc
}
