package main

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/f3d"
	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/parloop"
)

// seriesDef is one row of the series table: the identity the baseline
// records and how to compute the value from the shared fixtures.
type seriesDef struct {
	Name   string
	Unit   string
	Better Direction
	// Exactly one of the two is set: value computes a deterministic
	// row outright; ratio names the two sides of a speedup row, which
	// measure times together with every other ratio's.
	value func(f *fixtures) float64
	ratio func(f *fixtures) pair
}

// pair is the two sides of one tuned-vs-scalar speedup.
type pair struct{ scalar, tuned func() }

// seriesTable is everything benchdump reports. A series belongs here
// only if it is deterministic, or a dimensionless ratio of two timings
// taken in this process, and no tier-1 test or checktool cell asserts
// the same fact (EXPERIMENTS.md maps every series that left to the test
// that covers it). Times, rates and shares of time are benchmark/'s.
var seriesTable = []seriesDef{
	// Examples 1-3: the synchronization structure of the paper's three
	// loop transformations, before and after, as sync events per pass
	// over the nest on a benchWorkers team.
	{"example1_inner_syncs_op", "syncs/op", Exact, func(f *fixtures) float64 { return f.syncs(f.e1Inner) }, nil},
	{"example1_outer_syncs_op", "syncs/op", Exact, func(f *fixtures) float64 { return f.syncs(f.e1Outer) }, nil},
	{"example2_separate_syncs_op", "syncs/op", Exact, func(f *fixtures) float64 { return f.syncs(f.e2Separate) }, nil},
	{"example2_merged_syncs_op", "syncs/op", Exact, func(f *fixtures) float64 { return f.syncs(f.e2Merged) }, nil},
	{"example3_child_syncs_op", "syncs/op", Exact, func(f *fixtures) float64 { return f.syncs(f.e3Child) }, nil},
	{"example3_hoisted_syncs_op", "syncs/op", Exact, func(f *fixtures) float64 { return f.syncs(f.e3Hoisted) }, nil},

	// The tuned inner-loop kernels against the scalar forms they
	// replaced. A tuned kernel silently decaying back to scalar speed
	// passes every bitwise test; the ratio is what catches it. The
	// lane and planar solvers must also stay allocation-free (the slice
	// reductions' zeros are pinned by reduce_tuned_test.go).
	{"kern_tridiag_batch5_speedup", "x", Higher, nil, func(f *fixtures) pair { return f.tri }},
	{"kern_tridiag_batch5_allocs_op", "allocs/op", Exact, func(f *fixtures) float64 { return testing.AllocsPerRun(20, f.tri.tuned) }, nil},
	{"kern_pentadiag_batch5_speedup", "x", Higher, nil, func(f *fixtures) pair { return f.penta }},
	{"kern_pentadiag_batch5_allocs_op", "allocs/op", Exact, func(f *fixtures) float64 { return testing.AllocsPerRun(20, f.penta.tuned) }, nil},
	{"kern_planar_tuned_speedup", "x", Higher, nil, func(f *fixtures) pair { return f.planar }},
	{"kern_planar_tuned_allocs_op", "allocs/op", Exact, func(f *fixtures) float64 { return testing.AllocsPerRun(20, f.planar.tuned) }, nil},
	{"kern_sum_slice_speedup", "x", Higher, nil, func(f *fixtures) pair { return f.sum }},
	{"kern_max_slice_speedup", "x", Higher, nil, func(f *fixtures) pair { return f.max }},
	// The whole solver step: f3d.NewReferenceSolver (the only way left
	// to run the scalar kernels) against what NewCacheSolver serves,
	// both serial.
	{"kern_f3d_step_tuned_speedup", "x", Higher, nil, func(f *fixtures) pair { return f.step }},
}

// runSeries evaluates the table and returns its rows in table order.
// The baseline (empty when there is none) only tells measure how long
// to keep sampling; no value is derived from it.
func runSeries(f *fixtures, base Report, logf func(format string, args ...any)) []Series {
	baseline := make(map[string]float64, len(base.Series))
	for _, s := range base.Series {
		baseline[s.Name] = s.Value
	}
	var pairs []pair
	var floors []float64
	for _, d := range seriesTable {
		if d.ratio != nil {
			pairs = append(pairs, d.ratio(f))
			floors = append(floors, baseline[d.Name]*(1-tolerance))
		}
	}
	logf("timing %d ratios (%v or more) ...", len(pairs), time.Duration(minRounds*2*len(pairs))*sideDur)
	speedups := measure(pairs, floors)
	out := make([]Series, len(seriesTable))
	for i, d := range seriesTable {
		out[i] = Series{Name: d.Name, Unit: d.Unit, Better: d.Better}
		if d.ratio != nil {
			out[i].Value, speedups = speedups[0], speedups[1:]
		} else {
			out[i].Value = d.value(f)
		}
		logf("  %-32s %12.6g %-10s [%s]", d.Name, out[i].Value, d.Unit, d.Better)
	}
	return out
}

// A round times each side of every ratio for sideDur. The table's six
// ratios take minRounds × 6 × 2 × 15 ms ≈ 2.7 s on a quiet host and at
// most maxRounds × … ≈ 27 s when one of them really has regressed.
const (
	minRounds = 15
	maxRounds = 150
	sideDur   = 15 * time.Millisecond
)

// measure returns, for each pair, how many times faster tuned runs than
// scalar: the ratio of each side's fastest round. A round times every
// side of every pair once, alternating which side of a pair goes first,
// so one pair's samples are spread over the whole run. After minRounds
// it stops as soon as every ratio has reached its floor — the value its
// gate needs, 0 without a baseline — and gives up at maxRounds.
//
// Fastest round and a stopping rule, not a median of per-round ratios
// over a fixed length: the noise of a shared host only ever slows a side
// down, for 20 ms or for 10 s, and it is not common to the two sides (a
// busy sibling hardware thread halves the throughput-bound tuned sum
// and leaves the latency-bound scalar sum alone). The minima need one
// quiet round per side, and sampling on turns a slow phase into a longer
// run instead of a false alarm; a kernel that really decayed stays under
// its floor however long it is sampled. EXPERIMENTS.md has the numbers.
func measure(pairs []pair, floors []float64) []float64 {
	nsPerCall := func(f func()) float64 {
		n := 0
		start := time.Now()
		for time.Since(start) < sideDur {
			f()
			n++
		}
		return float64(time.Since(start)) / float64(n)
	}
	type fastest struct{ scalar, tuned float64 }
	best := make([]fastest, len(pairs))
	for i := range best {
		best[i] = fastest{math.Inf(1), math.Inf(1)}
	}
	out := make([]float64, len(pairs))
	for r := 0; r < maxRounds; r++ {
		for i, p := range pairs {
			var s, t float64
			if r%2 == 0 {
				s, t = nsPerCall(p.scalar), nsPerCall(p.tuned)
			} else {
				t, s = nsPerCall(p.tuned), nsPerCall(p.scalar)
			}
			best[i] = fastest{math.Min(best[i].scalar, s), math.Min(best[i].tuned, t)}
			out[i] = best[i].scalar / best[i].tuned
		}
		done := r+1 >= minRounds
		for i := range out {
			done = done && out[i] >= floors[i]
		}
		if done {
			break
		}
	}
	return out
}

// benchWorkers pins the team size so the sync-event counts do not
// depend on the host's core count.
const benchWorkers = 4

// kernOrder is the system order the band solvers are timed at — long
// enough to amortize call overhead, short enough that a pentadiagonal
// set and its pristine copy (15 KiB) stay in L1 like the solver's pencil
// lines do. At 64 they fill a 32 KiB L1 and the ratio reads anything
// from 2.3 to 3.6 depending on what else is resident.
const kernOrder = 32

// fixtures holds the loop nests and kernel calls the table's rows run.
type fixtures struct {
	team *parloop.Team

	e1Inner, e1Outer, e2Separate, e2Merged, e3Child, e3Hoisted func()

	tri, penta, planar, sum, max, step pair

	closers []func()
}

// syncs runs nest once against a zeroed sync-event counter and returns
// how many synchronization events it cost.
func (f *fixtures) syncs(nest func()) float64 {
	f.team.ResetSyncEvents()
	nest()
	return float64(f.team.SyncEvents())
}

func (f *fixtures) close() {
	for _, c := range f.closers {
		c()
	}
}

func newFixtures() *fixtures {
	f := &fixtures{team: parloop.NewTeam(benchWorkers)}
	f.closers = append(f.closers, f.team.Close)
	f.examples()
	f.laneSolvers()
	f.planarSolver()
	f.reductions()
	f.solverSteps()
	return f
}

func (f *fixtures) examples() {
	team := f.team

	// Example 1: parallelize the inner or the outer loop of a nest.
	const e1Outer, e1Inner = 64, 4096
	data := make([]float64, e1Outer*e1Inner)
	e1Body := func(o, i int) {
		v := data[o*e1Inner+i]
		data[o*e1Inner+i] = v*v*0.5 + v + 1
	}
	f.e1Inner = func() {
		for o := 0; o < e1Outer; o++ {
			team.For(e1Inner, func(i int) { e1Body(o, i) })
		}
	}
	f.e1Outer = func() {
		team.For(e1Outer, func(o int) {
			for i := 0; i < e1Inner; i++ {
				e1Body(o, i)
			}
		})
	}

	// Example 2: two loops as two regions, or merged under one.
	const e2N = 1 << 16
	a := make([]float64, e2N)
	c := make([]float64, e2N)
	f.e2Separate = func() {
		team.For(e2N, func(j int) { a[j] = float64(j) * 0.5 })
		team.For(e2N, func(j int) { c[j] = a[j] + 1 })
	}
	f.e2Merged = func() {
		team.Region(func(ctx *parloop.WorkerCtx) {
			ctx.For(e2N, func(j int) { a[j] = float64(j) * 0.5 })
			ctx.For(e2N, func(j int) { c[j] = a[j] + 1 })
		})
	}

	// Example 3: a region per call of the child subroutine, or one
	// hoisted into the parent.
	const e3Outer, e3Inner = 256, 512
	var acc atomic.Int64
	f.e3Child = func() {
		for j := 0; j < e3Outer; j++ {
			team.ForChunked(e3Inner, func(lo, hi int) {
				s := int64(0)
				for i := lo; i < hi; i++ {
					s += int64(i ^ j)
				}
				acc.Add(s)
			})
		}
	}
	f.e3Hoisted = func() {
		team.For(e3Outer, func(j int) {
			s := int64(0)
			for i := 0; i < e3Inner; i++ {
				s += int64(i ^ j)
			}
			acc.Add(s)
		})
	}
}

// bandSet is the band storage of one solver call: its 5-lane bands
// carved out of one contiguous block, the way the solver carves a
// pencil's bands out of one arena block, and a pristine copy so a timed
// call can restore the inputs the solve destroys. Lanes allocated one by
// one land wherever the heap has room, and when their addresses collide
// in L1 — 20 lanes 4 KiB apart share eight sets — the batch kernels
// thrash: a whole run then reads 1.2 where the next reads 3.8.
type bandSet struct {
	band      [][linalg.Lanes][]float64
	work, ref []float64
}

// newBandSet fills bands first, first+1, … with sin(…), the one at
// index diag shifted onto the diagonal so elimination is
// well-conditioned.
func newBandSet(count, diag int, shift, first float64) *bandSet {
	s := &bandSet{
		band: make([][linalg.Lanes][]float64, count),
		work: make([]float64, count*linalg.Lanes*kernOrder),
		ref:  make([]float64, count*linalg.Lanes*kernOrder),
	}
	for k := range s.band {
		for l := range s.band[k] {
			at := (k*linalg.Lanes + l) * kernOrder
			s.band[k][l] = s.work[at : at+kernOrder : at+kernOrder]
			for i := 0; i < kernOrder; i++ {
				v := math.Sin(first + float64(k+l) + 2.3*float64(i))
				if k == diag {
					v = shift + 0.5*v
				}
				s.ref[at+i] = v
			}
		}
	}
	return s
}

func (s *bandSet) restore() { copy(s.work, s.ref) }

// laneSolvers: the lane-batched tridiagonal and pentadiagonal solves
// against one scalar solve per lane.
func (f *fixtures) laneSolvers() {
	tri := newBandSet(4, 1, 3, 1)
	a, b, c, d := &tri.band[0], &tri.band[1], &tri.band[2], &tri.band[3]
	f.tri.scalar = func() {
		tri.restore()
		for l := 0; l < linalg.Lanes; l++ {
			linalg.SolveTridiag(a[l], b[l], c[l], d[l])
		}
	}
	f.tri.tuned = func() {
		tri.restore()
		linalg.SolveTridiag5(a, b, c, d, kernOrder)
	}

	penta := newBandSet(6, 2, 4, 5)
	pe, pa, pb := &penta.band[0], &penta.band[1], &penta.band[2]
	pc, pf, pd := &penta.band[3], &penta.band[4], &penta.band[5]
	f.penta.scalar = func() {
		penta.restore()
		for l := 0; l < linalg.Lanes; l++ {
			linalg.SolvePentadiag(pe[l], pa[l], pb[l], pc[l], pf[l], pd[l])
		}
	}
	f.penta.tuned = func() {
		penta.restore()
		linalg.SolvePentadiag5(pe, pa, pb, pc, pf, pd, kernOrder)
	}
}

// planarSolver: the planar (vector-layout) tridiagonal solve.
func (f *fixtures) planarSolver() {
	const rows, systems = 64, 32
	planar := func(seed, shift, amp float64) (work, ref []float64) {
		work = make([]float64, rows*systems)
		ref = make([]float64, rows*systems)
		for i := range ref {
			ref[i] = shift + amp*math.Sin(seed+1.7*float64(i))
		}
		return
	}
	qa, qa0 := planar(11, 0, 1)
	qb, qb0 := planar(12, 3, 0.5)
	qc, qc0 := planar(13, 0, 1)
	qd, qd0 := planar(14, 0, 1)
	restore := func() {
		copy(qa, qa0)
		copy(qb, qb0)
		copy(qc, qc0)
		copy(qd, qd0)
	}
	f.planar.scalar = func() {
		restore()
		linalg.SolveTridiagPlanar(qa, qb, qc, qd, rows, systems)
	}
	f.planar.tuned = func() {
		restore()
		linalg.SolveTridiagPlanarTuned(qa, qb, qc, qd, rows, systems)
	}
}

// sink keeps the reductions' results live.
var sink float64

// reductions: the unrolled slice reductions against the strict scalar
// folds.
func (f *fixtures) reductions() {
	x := make([]float64, 4096)
	for i := range x {
		x[i] = math.Sin(15 + 1.3*float64(i))
	}
	f.sum.scalar = func() {
		s := 0.0
		for _, v := range x {
			s += v
		}
		sink = s
	}
	f.max.scalar = func() {
		m := math.Inf(-1)
		for _, v := range x {
			if v > m {
				m = v
			}
		}
		sink = m
	}
	f.sum.tuned = func() { sink = parloop.SumSliceSerial(x) }
	f.max.tuned = func() { sink = parloop.MaxSliceSerial(x) }
}

func (f *fixtures) solverSteps() {
	cfg := f3d.DefaultConfig(grid.Single(17, 15, 13))
	ref, err := f3d.NewReferenceSolver(cfg)
	if err != nil {
		panic(fmt.Sprintf("benchdump: building reference solver: %v", err))
	}
	tuned, err := f3d.NewCacheSolver(cfg, f3d.CacheOptions{})
	if err != nil {
		panic(fmt.Sprintf("benchdump: building solver: %v", err))
	}
	f3d.InitPulse(ref, 0.02)
	f3d.InitPulse(tuned, 0.02)
	f.step.scalar = func() { ref.Step() }
	f.step.tuned = func() { tuned.Step() }
	f.closers = append(f.closers, ref.Close, tuned.Close)
}
