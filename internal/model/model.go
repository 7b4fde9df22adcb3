// Package model implements the closed-form performance models from
// ARL-TR-2556 ("Using Loop-Level Parallelism to Parallelize Vectorizable
// Programs"): the minimum-work-per-loop criterion of Table 1, the
// work-per-synchronization-event accounting of Table 2, the stair-step
// speedup model of Table 3 and Figure 1, and the Amdahl/overhead
// composition used to predict whole-application scaling.
//
// All work quantities are expressed in processor cycles, as in the paper.
// The models are exact arithmetic: they are reproduced bit-for-bit by the
// benchmark harness and compared against the paper's printed tables in
// EXPERIMENTS.md.
package model

import (
	"fmt"
	"math"
)

// OverheadBudget is the fraction of runtime the paper allots to
// synchronization cost: "it is preferable to keep these costs below 1% of
// the runtime" (§3). Table 1 is computed with this value.
const OverheadBudget = 0.01

// MinWorkPerLoop returns the minimum amount of work (in cycles, summed
// over one execution of the loop on a single processor) that a
// parallelized loop must contain so that the synchronization cost of one
// parallel region stays below budget·runtime when run on procs
// processors (Table 1).
//
// Derivation: the loop body takes work/procs cycles of wall-clock time;
// one synchronization event costs syncCost cycles. Requiring
// syncCost ≤ budget · (work/procs) gives work ≥ procs·syncCost/budget.
func MinWorkPerLoop(procs int, syncCost float64, budget float64) float64 {
	if procs < 1 {
		panic(fmt.Sprintf("model: MinWorkPerLoop procs must be >= 1, got %d", procs))
	}
	if syncCost < 0 {
		panic(fmt.Sprintf("model: MinWorkPerLoop syncCost must be >= 0, got %g", syncCost))
	}
	if budget <= 0 {
		panic(fmt.Sprintf("model: MinWorkPerLoop budget must be > 0, got %g", budget))
	}
	return float64(procs) * syncCost / budget
}

// Table1Procs and Table1SyncCosts are the row and column headings of
// Table 1 in the paper.
var (
	Table1Procs     = []int{2, 8, 32, 128}
	Table1SyncCosts = []float64{10_000, 100_000, 1_000_000}
)

// Table1 returns the paper's Table 1: rows indexed by Table1Procs,
// columns by Table1SyncCosts, each entry the minimum work per
// parallelized loop (in cycles) for efficient (≤1% overhead) execution.
func Table1() [][]float64 {
	t := make([][]float64, len(Table1Procs))
	for i, p := range Table1Procs {
		row := make([]float64, len(Table1SyncCosts))
		for j, sc := range Table1SyncCosts {
			row[j] = MinWorkPerLoop(p, sc, OverheadBudget)
		}
		t[i] = row
	}
	return t
}

// LoopPlacement identifies which loop of a nest carries the parallel
// region, in the sense of Table 2. The placement determines how many
// grid points are processed per synchronization event.
type LoopPlacement int

const (
	// InnerLoop: the parallel region wraps only the innermost loop, so
	// each execution of the inner loop is a separate region.
	InnerLoop LoopPlacement = iota
	// MiddleLoop: the region wraps the middle loop of a 3-D nest (one
	// plane of work per region).
	MiddleLoop
	// OuterLoop: the region wraps the outermost loop (the whole zone per
	// region) — the paper's recommended placement.
	OuterLoop
	// BoundaryInner: a boundary-condition routine parallelized at its
	// inner loop (one edge row of a face per region).
	BoundaryInner
	// BoundaryOuter: a boundary-condition routine parallelized at its
	// outer loop (one whole face per region).
	BoundaryOuter
)

// String returns the Table 2 row label for the placement.
func (p LoopPlacement) String() string {
	names := [...]string{
		"inner loop", "middle loop", "outer loop", "boundary condition - inner loop",
		"boundary condition - outer loop",
	}
	if p >= 0 && int(p) < len(names) {
		return names[p]
	}
	return fmt.Sprintf("LoopPlacement(%d)", int(p))
}

// WorkPerSyncEvent returns the available amount of work (in cycles) per
// synchronization event for a rectangular grid with the given dimensions
// (highest-stride first; len 1, 2 or 3), a parallel region at the given
// placement, and the given work per grid point in cycles (Table 2).
//
// The rule is the one implicit in Table 2: the work available in one
// region is workPerPoint times the number of grid points enclosed by the
// parallelized loop. For a d-dimensional zone with dims [n1, …, nd]
// (n1 outermost):
//
//	outer loop   → n1·…·nd points (the whole zone)
//	middle loop  → n2·…·nd points (one outer-index plane)
//	inner loop   → nd points (one pencil)
//	boundary - outer → points of one face (drop the outermost dim)
//	boundary - inner → nd points (one pencil of a face)
//
// A 1-D grid has a single loop; every placement degenerates to the whole
// grid, matching the single 1-D row of Table 2.
func WorkPerSyncEvent(dims []int, placement LoopPlacement, workPerPoint float64) float64 {
	if len(dims) == 0 || len(dims) > 3 {
		panic(fmt.Sprintf("model: WorkPerSyncEvent needs 1-3 dims, got %d", len(dims)))
	}
	for _, n := range dims {
		if n < 1 {
			panic(fmt.Sprintf("model: WorkPerSyncEvent dims must be >= 1, got %v", dims))
		}
	}
	if workPerPoint < 0 {
		panic(fmt.Sprintf("model: WorkPerSyncEvent workPerPoint must be >= 0, got %g", workPerPoint))
	}
	points := func(ds []int) float64 {
		p := 1.0
		for _, n := range ds {
			p *= float64(n)
		}
		return p
	}
	d := len(dims)
	var enclosed float64
	switch placement {
	case OuterLoop:
		enclosed = points(dims)
	case MiddleLoop:
		if d < 3 {
			enclosed = points(dims[min(1, d-1):])
		} else {
			enclosed = points(dims[1:])
		}
	case InnerLoop:
		enclosed = float64(dims[d-1])
	case BoundaryOuter:
		if d == 1 {
			enclosed = 1
		} else {
			enclosed = points(dims[1:])
		}
	case BoundaryInner:
		if d == 1 {
			enclosed = 1
		} else {
			enclosed = float64(dims[d-1])
		}
	default:
		panic(fmt.Sprintf("model: unknown placement %v", placement))
	}
	return enclosed * workPerPoint
}

// Table2Row is one row of the paper's Table 2.
type Table2Row struct {
	Problem   string // "1-D", "2-D", "3-D"
	Dims      []int  // grid dimensions
	LoopIters int    // iteration count of the parallelized loop
	Placement LoopPlacement
	Label     string     // row label as printed in the paper
	Work      [3]float64 // work per sync event at 10, 100, 1000 cycles/point
}

// Table2WorkPerPoint are the column headings of Table 2.
var Table2WorkPerPoint = [3]float64{10, 100, 1000}

// Table2 returns the paper's Table 2 (available work per synchronization
// event for a 1-million-grid-point zone) row by row.
func Table2() []Table2Row {
	type spec struct {
		problem   string
		dims      []int
		iters     int
		placement LoopPlacement
		label     string
	}
	specs := []spec{
		{"1-D", []int{1_000_000}, 1_000_000, OuterLoop, "1-D"},
		{"2-D", []int{1000, 1000}, 1000, InnerLoop, "Inner loop"},
		{"2-D", []int{1000, 1000}, 1000, OuterLoop, "Outer loop"},
		{"2-D", []int{1000, 1000}, 1000, BoundaryOuter, "Boundary condition"},
		{"3-D", []int{100, 100, 100}, 100, InnerLoop, "Inner loop"},
		{"3-D", []int{100, 100, 100}, 100, MiddleLoop, "Middle loop"},
		{"3-D", []int{100, 100, 100}, 100, OuterLoop, "Outer loop"},
		{"3-D", []int{100, 100, 100}, 100, BoundaryInner, "Boundary condition - inner loop"},
		{"3-D", []int{100, 100, 100}, 100, BoundaryOuter, "Boundary condition - outer loop"},
	}
	rows := make([]Table2Row, len(specs))
	for i, s := range specs {
		r := Table2Row{
			Problem:   s.problem,
			Dims:      s.dims,
			LoopIters: s.iters,
			Placement: s.placement,
			Label:     s.label,
		}
		for j, w := range Table2WorkPerPoint {
			r.Work[j] = WorkPerSyncEvent(s.dims, s.placement, w)
		}
		rows[i] = r
	}
	return rows
}

// StairStepSpeedup returns the paper's predicted speedup for a loop with
// n units of parallelism executed on procs processors (Table 3,
// Figure 1): the loop's iterations are dealt out in blocks, so the
// critical path holds ceil(n/procs) units and
//
//	speedup = n / ceil(n/procs).
//
// The result is exact for procs ≥ 1 and n ≥ 1; extra processors beyond n
// are idle, so speedup saturates at n.
func StairStepSpeedup(n, procs int) float64 {
	if n < 1 {
		panic(fmt.Sprintf("model: StairStepSpeedup n must be >= 1, got %d", n))
	}
	if procs < 1 {
		panic(fmt.Sprintf("model: StairStepSpeedup procs must be >= 1, got %d", procs))
	}
	return float64(n) / float64(ceilDiv(n, procs))
}

// MaxUnitsPerProcessor returns the maximum number of units of
// parallelism assigned to a single processor — the middle column of
// Table 3 — for a loop with n units on procs processors.
func MaxUnitsPerProcessor(n, procs int) int {
	if n < 1 || procs < 1 {
		panic(fmt.Sprintf("model: MaxUnitsPerProcessor needs n, procs >= 1, got %d, %d", n, procs))
	}
	return ceilDiv(n, procs)
}

// Table3Row is one row of the paper's Table 3 for N = 15.
type Table3Row struct {
	ProcsLo, ProcsHi int // processor-count range sharing one speedup step
	MaxUnits         int
	Speedup          float64
}

// Table3 returns the paper's Table 3 (predicted speedup for a loop with
// 15 units of parallelism), collapsing processor counts that share a
// stair-step into ranges exactly as the paper prints them
// (1, 2, 3, 4, 5–7, 8–14, 15).
func Table3() []Table3Row {
	const n = 15
	var rows []Table3Row
	for p := 1; p <= n; {
		u := MaxUnitsPerProcessor(n, p)
		hi := p
		for hi+1 <= n && MaxUnitsPerProcessor(n, hi+1) == u {
			hi++
		}
		rows = append(rows, Table3Row{
			ProcsLo:  p,
			ProcsHi:  hi,
			MaxUnits: u,
			Speedup:  StairStepSpeedup(n, p),
		})
		p = hi + 1
	}
	return rows
}

// Figure1Parallelism lists the parallelism levels plotted in Figure 1.
var Figure1Parallelism = []int{5, 15, 25, 35, 45}

// Figure1MaxProcs is the x-axis extent of Figure 1.
const Figure1MaxProcs = 50

// Figure1Series returns the predicted-speedup curves of Figure 1: for
// each n in Figure1Parallelism, speedups at procs = 1…Figure1MaxProcs.
// The outer index parallels Figure1Parallelism.
func Figure1Series() [][]float64 {
	out := make([][]float64, len(Figure1Parallelism))
	for i, n := range Figure1Parallelism {
		s := make([]float64, Figure1MaxProcs)
		for p := 1; p <= Figure1MaxProcs; p++ {
			s[p-1] = StairStepSpeedup(n, p)
		}
		out[i] = s
	}
	return out
}

// AmdahlSpeedup returns the classic Amdahl's-law speedup for a program
// whose parallelizable fraction (of single-processor runtime) is f, on
// procs processors. The paper invokes Amdahl's law for the serial
// boundary-condition routines ("too much time spent executing serial
// code", §3).
func AmdahlSpeedup(f float64, procs int) float64 {
	if f < 0 || f > 1 {
		panic(fmt.Sprintf("model: AmdahlSpeedup fraction must be in [0,1], got %g", f))
	}
	if procs < 1 {
		panic(fmt.Sprintf("model: AmdahlSpeedup procs must be >= 1, got %d", procs))
	}
	return 1 / ((1 - f) + f/float64(procs))
}

// SpeedupJumps returns the processor counts (≤ maxProcs, ascending) at
// which the stair-step speedup of a loop with n units of parallelism
// jumps to a new plateau. The paper observes these at roughly M/5, M/4,
// M/3, M/2 and M for maximum loop dimension M (§5).
func SpeedupJumps(n, maxProcs int) []int {
	if n < 1 || maxProcs < 1 {
		panic(fmt.Sprintf("model: SpeedupJumps needs n, maxProcs >= 1, got %d, %d", n, maxProcs))
	}
	var jumps []int
	prev := math.Inf(1) // so p=1 is never counted as a jump
	for p := 1; p <= maxProcs; p++ {
		s := StairStepSpeedup(n, p)
		if p > 1 && s > prev {
			jumps = append(jumps, p)
		}
		prev = s
	}
	return jumps
}

// PlateauProcs returns the efficient team sizes (≤ maxProcs, ascending)
// for a loop with m units of parallelism: the processor counts that sit
// at the left edge of a stair-step plateau, i.e. 1 plus the jump points
// of SpeedupJumps. Any processor count strictly between two consecutive
// entries delivers exactly the speedup of the smaller entry (Table 3:
// for m = 15, granting 6 or 7 processors buys nothing over 5), so a
// space-sharing scheduler should only ever hand a job one of these
// sizes.
func PlateauProcs(m, maxProcs int) []int {
	if m < 1 || maxProcs < 1 {
		panic(fmt.Sprintf("model: PlateauProcs needs m, maxProcs >= 1, got %d, %d", m, maxProcs))
	}
	return append([]int{1}, SpeedupJumps(m, maxProcs)...)
}

func ceilDiv(a, b int) int {
	return (a + b - 1) / b
}
