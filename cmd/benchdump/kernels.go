package main

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/f3d"
	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/parloop"
)

// The kern_ series: per-kernel measurements of the tuned inner-loop
// layer. Wall-clock and MFLOPS numbers are recorded ungated (they
// track the host), but three deterministic properties gate CI:
//
//   - kern_*_allocs_op: the hot serial kernels must stay
//     allocation-free (Exact, 0).
//   - kern_*_speedup: tuned-vs-scalar ratios are dimensionless — both
//     sides run on the same machine in the same process — so a tuned
//     kernel silently decaying back to scalar speed fails the gate
//     even though neither absolute timing is gated.
//   - kern_*_bitwise: the tuned kernel must reproduce the scalar bits
//     on live data, the same contract the conformance matrix enforces.
//
// MFLOPS use nominal algorithmic flop counts (8 per tridiagonal row:
// one divide, two multiplies, two subtracts forward; one multiply,
// one subtract, one divide back — counting divides as one; 19 per
// pentadiagonal row for the two-element elimination), so they are
// comparable against the paper's reported per-kernel rates.
const (
	tridiagFlopsPerRow   = 8
	pentadiagFlopsPerRow = 19
)

// kernOrder is the system order the solver kernels are timed at —
// long enough to amortize call overhead, short enough to stay in L1
// like the solver's pencil lines do.
const kernOrder = 64

// runKernelSuite produces the kern_ series on their own collector, so
// both the full suite and `-suite kernels` can use it.
func runKernelSuite(short bool, logf func(format string, args ...any)) []Series {
	minDur := time.Second
	if short {
		minDur = 100 * time.Millisecond
	}
	var out []Series
	gated := func(name string, v float64, unit string, better Direction) {
		out = append(out, Series{Name: name, Value: v, Unit: unit, Better: better, Gate: true})
		logf("  %-36s %14.6g %-12s [gated %s]", name, v, unit, better)
	}
	ungated := func(name string, v float64, unit string, better Direction) {
		out = append(out, Series{Name: name, Value: v, Unit: unit, Better: better, Gate: false})
		logf("  %-36s %14.6g %-12s [ungated]", name, v, unit)
	}
	runKernelSeries(short, minDur, logf, gated, ungated)
	return out
}

// kernBands fills one 5-lane batch of diagonally dominant bands plus
// pristine copies, so timed loops can restore the inputs the solvers
// destroy.
func kernBands(n int, seed float64) (work, ref [linalg.Lanes][]float64) {
	for l := 0; l < linalg.Lanes; l++ {
		work[l] = make([]float64, n)
		ref[l] = make([]float64, n)
		for i := 0; i < n; i++ {
			ref[l][i] = math.Sin(seed + float64(l) + 2.3*float64(i))
		}
		copy(work[l], ref[l])
	}
	return
}

func restore(work, ref *[linalg.Lanes][]float64) {
	for l := range work {
		copy(work[l], ref[l])
	}
}

// dominant shifts a band set onto the diagonal so elimination is
// well-conditioned.
func dominant(b *[linalg.Lanes][]float64, shift float64) {
	for l := range b {
		for i := range b[l] {
			b[l][i] = shift + 0.5*b[l][i]
		}
	}
}

func bitsEqual(x, y [linalg.Lanes][]float64) float64 {
	for l := range x {
		for i := range x[l] {
			if math.Float64bits(x[l][i]) != math.Float64bits(y[l][i]) {
				return 0
			}
		}
	}
	return 1
}

func runKernelSeries(short bool, minDur time.Duration, logf func(format string, args ...any),
	gated, ungated func(name string, v float64, unit string, better Direction)) {

	timed := func(name string, v float64, unit string) { ungated(name, v, unit, Lower) }

	// --- Lane-batched tridiagonal solve.
	logf("kernels: tridiagonal batch (order %d, %d lanes):", kernOrder, linalg.Lanes)
	a, a0 := kernBands(kernOrder, 1)
	b, b0 := kernBands(kernOrder, 2)
	c, c0 := kernBands(kernOrder, 3)
	d, d0 := kernBands(kernOrder, 4)
	dominant(&b0, 3)
	triScalar := func() {
		restore(&a, &a0)
		restore(&b, &b0)
		restore(&c, &c0)
		restore(&d, &d0)
		for l := 0; l < linalg.Lanes; l++ {
			linalg.SolveTridiag(a[l], b[l], c[l], d[l])
		}
	}
	triBatch := func() {
		restore(&a, &a0)
		restore(&b, &b0)
		restore(&c, &c0)
		restore(&d, &d0)
		linalg.SolveTridiag5(&a, &b, &c, &d, kernOrder)
	}
	triScalar()
	var triRef, triOut [linalg.Lanes][]float64
	for l := range triRef {
		triRef[l] = append([]float64(nil), d[l]...)
	}
	triBatch()
	for l := range triOut {
		triOut[l] = append([]float64(nil), d[l]...)
	}
	gated("kern_tridiag_batch5_bitwise", bitsEqual(triRef, triOut), "bool", Exact)
	nsTriScalar := measure(minDur, triScalar)
	nsTriBatch := measure(minDur, triBatch)
	triFlops := float64(tridiagFlopsPerRow * kernOrder * linalg.Lanes)
	timed("kern_tridiag_scalar_ns_op", nsTriScalar, "ns/op")
	timed("kern_tridiag_batch5_ns_op", nsTriBatch, "ns/op")
	ungated("kern_tridiag_batch5_mflops", triFlops/nsTriBatch*1e3, "MFLOPS", Higher)
	gated("kern_tridiag_batch5_speedup", nsTriScalar/nsTriBatch, "x", Higher)
	gated("kern_tridiag_batch5_allocs_op", testing.AllocsPerRun(20, triBatch), "allocs/op", Exact)

	// --- Lane-batched pentadiagonal solve.
	logf("kernels: pentadiagonal batch (order %d, %d lanes):", kernOrder, linalg.Lanes)
	pe, pe0 := kernBands(kernOrder, 5)
	pa, pa0 := kernBands(kernOrder, 6)
	pb, pb0 := kernBands(kernOrder, 7)
	pc, pc0 := kernBands(kernOrder, 8)
	pf, pf0 := kernBands(kernOrder, 9)
	pd, pd0 := kernBands(kernOrder, 10)
	dominant(&pb0, 4)
	pentaRestore := func() {
		restore(&pe, &pe0)
		restore(&pa, &pa0)
		restore(&pb, &pb0)
		restore(&pc, &pc0)
		restore(&pf, &pf0)
		restore(&pd, &pd0)
	}
	pentaScalar := func() {
		pentaRestore()
		for l := 0; l < linalg.Lanes; l++ {
			linalg.SolvePentadiag(pe[l], pa[l], pb[l], pc[l], pf[l], pd[l])
		}
	}
	pentaBatch := func() {
		pentaRestore()
		linalg.SolvePentadiag5(&pe, &pa, &pb, &pc, &pf, &pd, kernOrder)
	}
	pentaScalar()
	var pentaRef, pentaOut [linalg.Lanes][]float64
	for l := range pentaRef {
		pentaRef[l] = append([]float64(nil), pd[l]...)
	}
	pentaBatch()
	for l := range pentaOut {
		pentaOut[l] = append([]float64(nil), pd[l]...)
	}
	gated("kern_pentadiag_batch5_bitwise", bitsEqual(pentaRef, pentaOut), "bool", Exact)
	nsPentaScalar := measure(minDur, pentaScalar)
	nsPentaBatch := measure(minDur, pentaBatch)
	pentaFlops := float64(pentadiagFlopsPerRow * kernOrder * linalg.Lanes)
	timed("kern_pentadiag_scalar_ns_op", nsPentaScalar, "ns/op")
	timed("kern_pentadiag_batch5_ns_op", nsPentaBatch, "ns/op")
	ungated("kern_pentadiag_batch5_mflops", pentaFlops/nsPentaBatch*1e3, "MFLOPS", Higher)
	gated("kern_pentadiag_batch5_speedup", nsPentaScalar/nsPentaBatch, "x", Higher)
	gated("kern_pentadiag_batch5_allocs_op", testing.AllocsPerRun(20, pentaBatch), "allocs/op", Exact)

	// --- Planar (vector-layout) tridiagonal solve.
	const planarRows, planarSys = 64, 32
	logf("kernels: planar tridiagonal (%d rows x %d systems):", planarRows, planarSys)
	planar := func(seed float64) (work, ref []float64) {
		work = make([]float64, planarRows*planarSys)
		ref = make([]float64, planarRows*planarSys)
		for i := range ref {
			ref[i] = math.Sin(seed + 1.7*float64(i))
		}
		copy(work, ref)
		return
	}
	qa, qa0 := planar(11)
	qb, qb0 := planar(12)
	qc, qc0 := planar(13)
	qd, qd0 := planar(14)
	for i := range qb0 {
		qb0[i] = 3 + 0.5*qb0[i]
	}
	planarRestore := func() {
		copy(qa, qa0)
		copy(qb, qb0)
		copy(qc, qc0)
		copy(qd, qd0)
	}
	planarScalar := func() {
		planarRestore()
		linalg.SolveTridiagPlanar(qa, qb, qc, qd, planarRows, planarSys)
	}
	planarTuned := func() {
		planarRestore()
		linalg.SolveTridiagPlanarTuned(qa, qb, qc, qd, planarRows, planarSys)
	}
	planarScalar()
	planarRef := append([]float64(nil), qd...)
	planarTuned()
	planarBits := 1.0
	for i := range qd {
		if math.Float64bits(qd[i]) != math.Float64bits(planarRef[i]) {
			planarBits = 0
			break
		}
	}
	gated("kern_planar_tuned_bitwise", planarBits, "bool", Exact)
	nsPlanarScalar := measure(minDur, planarScalar)
	nsPlanarTuned := measure(minDur, planarTuned)
	planarFlops := float64(tridiagFlopsPerRow * planarRows * planarSys)
	timed("kern_planar_scalar_ns_op", nsPlanarScalar, "ns/op")
	timed("kern_planar_tuned_ns_op", nsPlanarTuned, "ns/op")
	ungated("kern_planar_tuned_mflops", planarFlops/nsPlanarTuned*1e3, "MFLOPS", Higher)
	gated("kern_planar_tuned_speedup", nsPlanarScalar/nsPlanarTuned, "x", Higher)
	gated("kern_planar_tuned_allocs_op", testing.AllocsPerRun(20, planarTuned), "allocs/op", Exact)

	// --- Slice reductions: the unrolled forms against the strict
	// scalar folds. The sums reassociate, so no bitwise gate — the
	// conformance matrix bounds them in ULPs instead; max is
	// grouping-insensitive and gates bitwise.
	const redN = 4096
	logf("kernels: slice reductions (n=%d):", redN)
	x := make([]float64, redN)
	y := make([]float64, redN)
	for i := range x {
		x[i] = math.Sin(15 + 1.3*float64(i))
		y[i] = math.Cos(16 + 0.9*float64(i))
	}
	var sink float64
	scalarSum := func() {
		s := 0.0
		for _, v := range x {
			s += v
		}
		sink = s
	}
	scalarMax := func() {
		m := math.Inf(-1)
		for _, v := range x {
			if v > m {
				m = v
			}
		}
		sink = m
	}
	tunedSum := func() { sink = parloop.SumSliceSerial(x) }
	tunedDot := func() { sink = parloop.DotSliceSerial(x, y) }
	tunedMax := func() { sink = parloop.MaxSliceSerial(x) }
	scalarMax()
	maxRef := sink
	tunedMax()
	maxBits := 0.0
	if math.Float64bits(sink) == math.Float64bits(maxRef) {
		maxBits = 1
	}
	gated("kern_max_slice_bitwise", maxBits, "bool", Exact)
	nsSumScalar := measure(minDur, scalarSum)
	nsSumTuned := measure(minDur, tunedSum)
	nsDotTuned := measure(minDur, tunedDot)
	nsMaxScalar := measure(minDur, scalarMax)
	nsMaxTuned := measure(minDur, tunedMax)
	timed("kern_sum_scalar_ns_op", nsSumScalar, "ns/op")
	timed("kern_sum_slice_ns_op", nsSumTuned, "ns/op")
	ungated("kern_sum_slice_mflops", redN/nsSumTuned*1e3, "MFLOPS", Higher)
	ungated("kern_dot_slice_mflops", 2*redN/nsDotTuned*1e3, "MFLOPS", Higher)
	gated("kern_sum_slice_speedup", nsSumScalar/nsSumTuned, "x", Higher)
	gated("kern_max_slice_speedup", nsMaxScalar/nsMaxTuned, "x", Higher)
	gated("kern_sum_slice_allocs_op", testing.AllocsPerRun(20, tunedSum), "allocs/op", Exact)
	gated("kern_dot_slice_allocs_op", testing.AllocsPerRun(20, tunedDot), "allocs/op", Exact)
	gated("kern_max_slice_allocs_op", testing.AllocsPerRun(20, tunedMax), "allocs/op", Exact)

	// --- The real solver, scalar reference vs production kernels: the
	// acceptance series. The scalar side is f3d.NewReferenceSolver (the
	// only way left to run the scalar kernels), the tuned side is what
	// NewCacheSolver serves. Both sides run on one worker, where the
	// step shape selects nothing, so the "example3" pair is a second
	// measurement of the same step, kept for the baseline's series
	// names.
	caseDims := [3]int{33, 27, 25}
	if short {
		caseDims = [3]int{17, 15, 13}
	}
	logf("kernels: f3d cache solver steps (%dx%dx%d):", caseDims[0], caseDims[1], caseDims[2])
	cfg := f3d.DefaultConfig(grid.Single(caseDims[0], caseDims[1], caseDims[2]))
	build := func(tuned bool) *f3d.CacheSolver {
		var s *f3d.CacheSolver
		var err error
		if tuned {
			s, err = f3d.NewCacheSolver(cfg, f3d.CacheOptions{})
		} else {
			s, err = f3d.NewReferenceSolver(cfg)
		}
		if err != nil {
			panic(fmt.Sprintf("benchdump: building solver: %v", err))
		}
		f3d.InitPulse(s, 0.02)
		return s
	}
	stepNs := func(tuned bool) float64 {
		s := build(tuned)
		defer s.Close()
		return measure(minDur, func() { s.Step() })
	}
	stepBits := func() float64 {
		var hist [2][]uint64
		for i, tuned := range []bool{false, true} {
			s := build(tuned)
			for step := 0; step < 3; step++ {
				st := s.Step()
				hist[i] = append(hist[i], math.Float64bits(st.Residual), math.Float64bits(st.MaxDelta))
			}
			s.Close()
		}
		for i := range hist[0] {
			if hist[0][i] != hist[1][i] {
				return 0
			}
		}
		return 1
	}
	gated("kern_f3d_tuned_bitwise", stepBits(), "bool", Exact)
	nsStepScalar := stepNs(false)
	nsStepTuned := stepNs(true)
	timed("kern_f3d_step_scalar_ns", nsStepScalar, "ns/step")
	timed("kern_f3d_step_tuned_ns", nsStepTuned, "ns/step")
	gated("kern_f3d_step_tuned_speedup", nsStepScalar/nsStepTuned, "x", Higher)
	nsRepeatScalar := stepNs(false)
	nsRepeatTuned := stepNs(true)
	timed("kern_example3_scalar_ns", nsRepeatScalar, "ns/step")
	timed("kern_example3_tuned_ns", nsRepeatTuned, "ns/step")
	gated("kern_example3_tuned_speedup", nsRepeatScalar/nsRepeatTuned, "x", Higher)
}
