package check

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/parloop"
)

// Spec is one conformance run's parameters, handed to a kernel's
// Parallel function.
type Spec struct {
	// N is the problem size.
	N int
	// StepHook, if non-nil, must be called by multi-step kernels
	// between fork-join regions, once per step. The driver uses it to
	// apply mid-run Team.Resize exactly where the scheduler would: at
	// a step boundary.
	StepHook func(step int)
}

// Step invokes the spec's step hook, if any. Kernels with Steps > 0
// call it before each step's parallel region.
func (s *Spec) Step(step int) {
	if s.StepHook != nil {
		s.StepHook(step)
	}
}

// Kernel is one conformance obligation: a serial reference and a
// parallel body that must agree on every point of the matrix.
type Kernel struct {
	// Name identifies the kernel in reports.
	Name string
	// N is the default problem size; MinN the smallest size the
	// kernel accepts (the minimizer's floor, >= 1).
	N, MinN int
	// Steps is the number of step-hook boundaries the parallel body
	// observes (0 for single-region kernels). Only kernels with
	// Steps > 0 get the mid-run Resize column of the matrix.
	Steps int
	// MaxULPs is the tolerated ULP distance from the serial
	// reference: 0 demands bitwise identity (order-invariant kernels:
	// elementwise maps, max reductions, integer-valued sums, the f3d
	// solver), a positive bound admits the regrouping error of
	// floating-point sums across team sizes.
	MaxULPs uint64
	// Serial computes the reference output for size n on one thread.
	Serial func(n int) []float64
	// Parallel computes the output on the team under the spec.
	Parallel func(t *parloop.Team, spec Spec) []float64
	// Tracked, if non-nil, runs a dependence-instrumented variant of
	// the parallel body on the team, with every shared access routed
	// through the tracker's arrays. Used by CheckDependences.
	Tracked func(tk *Tracker, t *parloop.Team, n int) []float64
}

// Case identifies one cell of the matrix: a team size, and whether the
// team is resized between steps.
type Case struct {
	Workers int
	Resized bool
}

func (c Case) String() string {
	s := fmt.Sprintf("workers=%d", c.Workers)
	if c.Resized {
		s += " resize"
	}
	return s
}

// Failure is one conformance violation, minimized where possible.
type Failure struct {
	Kernel string
	Case   Case
	// N is the (minimized) problem size that still fails.
	N int
	// Index is the first (or worst) mismatching output element; Got
	// and Want its values, ULPs their distance.
	Index     int
	Got, Want float64
	ULPs      uint64
	// Detail carries structural failures (length mismatch,
	// nondeterministic rerun) where element fields do not apply.
	Detail string
	// Minimized reports whether the minimizer ran to completion.
	Minimized bool
}

func (f Failure) String() string {
	if f.Detail != "" {
		return fmt.Sprintf("%s [%v n=%d]: %s", f.Kernel, f.Case, f.N, f.Detail)
	}
	return fmt.Sprintf("%s [%v n=%d]: out[%d] = %v, want %v (%d ulps)",
		f.Kernel, f.Case, f.N, f.Index, f.Got, f.Want, f.ULPs)
}

// Report is the outcome of a conformance run.
type Report struct {
	// Kernels is the number of kernels checked, Cases the number of
	// matrix cells executed.
	Kernels, Cases int
	Failures       []Failure
}

// OK reports whether every case passed.
func (r *Report) OK() bool { return len(r.Failures) == 0 }

func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "conformance: %d kernels, %d cases, %d failures\n",
		r.Kernels, r.Cases, len(r.Failures))
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "  FAIL %v\n", f)
	}
	return b.String()
}

// Run executes every kernel on teams of each of the given sizes and
// returns the report. Every multi-step kernel also gets a resize cell
// per team size above one. The serial reference is computed once per
// kernel and size; each failing cell is shrunk to a minimized repro
// case.
func Run(kernels []Kernel, teams []int) *Report {
	rep := &Report{}
	for _, k := range kernels {
		rep.Kernels++
		cases, fails := runKernel(k, teams)
		rep.Cases += cases
		rep.Failures = append(rep.Failures, fails...)
	}
	return rep
}

func runKernel(k Kernel, teams []int) (cases int, fails []Failure) {
	ref := k.Serial(k.N)
	for _, workers := range teams {
		team := parloop.NewTeam(workers)
		variants := []bool{false}
		if k.Steps > 0 && workers > 1 {
			variants = append(variants, true)
		}
		for _, resized := range variants {
			cases++
			c := Case{Workers: workers, Resized: resized}
			if f, ok := runCase(k, c, team, k.N, ref); !ok {
				fails = append(fails, minimize(k, c, f))
				continue
			}
			// Reruns must reproduce bit-for-bit — the property the
			// paper relies on for debugging parallel runs.
			out1 := runParallel(k, c, team, k.N)
			out2 := runParallel(k, c, team, k.N)
			if idx, ok := firstBitDiff(out1, out2); !ok {
				detail := "nondeterministic rerun: output length changed"
				if idx >= 0 {
					detail = fmt.Sprintf("nondeterministic rerun at out[%d]: %v vs %v", idx, out1[idx], out2[idx])
				}
				fails = append(fails, Failure{Kernel: k.Name, Case: c, N: k.N, Detail: detail})
			}
		}
		team.Close()
	}
	return cases, fails
}

// runParallel executes one parallel run of the kernel for the case,
// wiring the resize cycle through the step hook and restoring the team
// size afterwards.
func runParallel(k Kernel, c Case, team *parloop.Team, n int) []float64 {
	spec := Spec{N: n}
	if c.Resized {
		// Cycle the team through shrink, grow and restore at step
		// boundaries — the resize pattern a space-sharing scheduler
		// applies to a running job.
		sizes := []int{1, c.Workers + 2, maxInt(1, c.Workers-1), c.Workers}
		spec.StepHook = func(step int) {
			team.Resize(sizes[step%len(sizes)])
		}
	}
	out := k.Parallel(team, spec)
	if team.Workers() != c.Workers {
		team.Resize(c.Workers)
	}
	return out
}

// runCase runs the kernel once for the case and compares against ref.
func runCase(k Kernel, c Case, team *parloop.Team, n int, ref []float64) (Failure, bool) {
	out := runParallel(k, c, team, n)
	return compare(k, c, n, out, ref)
}

func compare(k Kernel, c Case, n int, got, want []float64) (Failure, bool) {
	if len(got) != len(want) {
		return Failure{
			Kernel: k.Name, Case: c, N: n,
			Detail: fmt.Sprintf("output length %d, want %d", len(got), len(want)),
		}, false
	}
	worstIdx, worstULPs := -1, uint64(0)
	for i := range got {
		if math.Float64bits(got[i]) == math.Float64bits(want[i]) {
			continue
		}
		d := ulpDist(got[i], want[i])
		if worstIdx < 0 || d > worstULPs {
			worstIdx, worstULPs = i, d
		}
		if k.MaxULPs == 0 {
			// Exact kernels fail on the first differing bit.
			break
		}
	}
	if worstIdx < 0 || (k.MaxULPs > 0 && worstULPs <= k.MaxULPs) {
		return Failure{}, true
	}
	return Failure{
		Kernel: k.Name, Case: c, N: n,
		Index: worstIdx, Got: got[worstIdx], Want: want[worstIdx], ULPs: worstULPs,
	}, false
}

// minimize shrinks a failing case to a small repro: first the problem
// size (halving probes, then finer ones), then the team size, rerunning
// serial reference and parallel body at each candidate. The search is
// bounded so a pathological kernel cannot hang the harness.
func minimize(k Kernel, c Case, found Failure) Failure {
	budget := 48
	fails := func(n, workers int) (Failure, bool) {
		if budget <= 0 {
			return Failure{}, false
		}
		budget--
		cc := c
		cc.Workers = workers
		team := parloop.NewTeam(workers)
		defer team.Close()
		f, ok := runCase(k, cc, team, n, k.Serial(n))
		return f, !ok // "fails" means comparison not ok
	}
	minN := k.MinN
	if minN < 1 {
		minN = 1
	}
	n, workers := k.N, c.Workers
	best := found
	for n > minN && budget > 0 {
		shrunk := false
		for _, cand := range []int{maxInt(minN, n/2), maxInt(minN, n-n/4), n - 1} {
			if cand >= n || cand < minN {
				continue
			}
			if f, bad := fails(cand, workers); bad {
				n, best, shrunk = cand, f, true
				break
			}
		}
		if !shrunk {
			break
		}
	}
	for workers > 2 && budget > 0 {
		if f, bad := fails(n, workers-1); bad {
			workers, best = workers-1, f
			continue
		}
		break
	}
	best.Minimized = true
	return best
}

// DepResult is the dependence-checker verdict for one kernel.
type DepResult struct {
	Kernel string
	Races  []Race
}

// CheckDependences runs every kernel that ships a tracked variant
// under shadow-memory instrumentation on a team of the given size and
// collects the loop-carried dependences found. Shipped kernels must
// come back clean; a seeded-dependence kernel must not.
func CheckDependences(kernels []Kernel, workers int) []DepResult {
	var out []DepResult
	for _, k := range kernels {
		if k.Tracked == nil {
			continue
		}
		team := parloop.NewTeam(workers)
		tk := NewTracker(team, 0)
		k.Tracked(tk, team, k.N)
		team.Close()
		out = append(out, DepResult{Kernel: k.Name, Races: tk.Races()})
	}
	return out
}

// ulpDist returns the distance in representable float64 values between
// a and b (0 when bitwise equal, MaxUint64 when either is NaN).
func ulpDist(a, b float64) uint64 {
	ba, bb := math.Float64bits(a), math.Float64bits(b)
	if ba == bb {
		return 0
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.MaxUint64
	}
	ia, ib := orderedBits(a), orderedBits(b)
	if ia < ib {
		ia, ib = ib, ia
	}
	return uint64(ia) - uint64(ib)
}

// orderedBits maps a float64 onto a signed integer line where
// consecutive integers are consecutive floats (two's-complement
// "biased" trick; both zeros map to 0).
func orderedBits(f float64) int64 {
	b := int64(math.Float64bits(f))
	if b < 0 {
		b = math.MinInt64 - b
	}
	return b
}

func firstBitDiff(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
