package check

import (
	"math"
	"strings"
	"testing"

	"repro/internal/parloop"
)

// TestRegistryPassesReducedMatrix runs every shipped kernel over a
// reduced matrix (the full one runs in CI via checktool). Team size 5
// divides none of the kernel sizes, so remainder handling is on the
// path; the resize cells exercise mid-run team changes at step
// boundaries.
func TestRegistryPassesReducedMatrix(t *testing.T) {
	rep := Run(Registry(), []int{1, 2, 3, 5})
	if !rep.OK() {
		t.Fatalf("conformance failures:\n%s", rep)
	}
	if rep.Kernels != len(Registry()) {
		t.Errorf("checked %d kernels, want %d", rep.Kernels, len(Registry()))
	}
	if rep.Cases == 0 {
		t.Error("no cases executed")
	}
}

// TestSeededDependenceCaughtAndMinimized: the harness must catch the
// deliberately broken kernel on every multi-worker cell and shrink the
// repro to the smallest failing configuration.
func TestSeededDependenceCaughtAndMinimized(t *testing.T) {
	k := SeededDependence()
	rep := Run([]Kernel{k}, []int{1, 2, 4})
	if rep.OK() {
		t.Fatal("seeded loop-carried dependence passed the harness")
	}
	// The workers=1 cell runs the recurrence in order and passes; the
	// workers=2 and workers=4 cells each fail once. Failures carry the
	// minimized case, so both report workers=2 below.
	if len(rep.Failures) != 2 {
		t.Fatalf("%d failures, want 2 (workers 2 and 4):\n%s", len(rep.Failures), rep)
	}
	for _, f := range rep.Failures {
		if !f.Minimized {
			t.Errorf("failure not minimized: %v", f)
			continue
		}
		// The recurrence breaks at the first chunk boundary, so the
		// minimal repro is two elements on two workers.
		if f.N != k.MinN {
			t.Errorf("minimized to n=%d, want %d: %v", f.N, k.MinN, f)
		}
		if f.Case.Workers != 2 {
			t.Errorf("minimized to workers=%d, want 2: %v", f.Case.Workers, f)
		}
		if f.Got == f.Want {
			t.Errorf("failure without a value mismatch: %v", f)
		}
		if s := f.String(); !strings.Contains(s, k.Name) {
			t.Errorf("failure string misses kernel name: %q", s)
		}
	}
}

// TestLengthMismatchReported: a parallel body that drops or duplicates
// output elements is a structural failure with a Detail, not a value
// diff.
func TestLengthMismatchReported(t *testing.T) {
	k := Kernel{
		Name: "short-output", N: 64, MinN: 1,
		Serial: func(n int) []float64 { return make([]float64, n) },
		Parallel: func(t *parloop.Team, spec Spec) []float64 {
			return make([]float64, spec.N-1)
		},
	}
	rep := Run([]Kernel{k}, []int{2})
	if rep.OK() {
		t.Fatal("length mismatch not reported")
	}
	if d := rep.Failures[0].Detail; !strings.Contains(d, "length") {
		t.Errorf("detail %q does not mention the length mismatch", d)
	}
}

// TestNondeterministicRerunCaught: the harness reruns each cell and
// demands bit-identical output — the reproducibility the paper relies
// on for debugging parallel runs.
func TestNondeterministicRerunCaught(t *testing.T) {
	calls := 0
	k := Kernel{
		Name: "flaky", N: 8, MinN: 1,
		Serial: func(n int) []float64 { return []float64{1} },
		Parallel: func(t *parloop.Team, spec Spec) []float64 {
			calls++
			if calls == 1 {
				return []float64{1} // first run matches the reference...
			}
			return []float64{float64(calls)} // ...then drifts per call
		},
	}
	rep := Run([]Kernel{k}, []int{2})
	if rep.OK() {
		t.Fatal("nondeterministic rerun not caught")
	}
	if d := rep.Failures[0].Detail; !strings.Contains(d, "nondeterministic") {
		t.Errorf("detail %q does not mention nondeterminism", d)
	}
}

// TestULPBoundAdmitsRegrouping: a kernel one ULP off passes with
// MaxULPs >= 1 and fails with 0.
func TestULPBoundAdmitsRegrouping(t *testing.T) {
	mk := func(maxULPs uint64) Kernel {
		return Kernel{
			Name: "one-ulp", N: 4, MinN: 4, MaxULPs: maxULPs,
			Serial: func(n int) []float64 { return []float64{1.0} },
			Parallel: func(t *parloop.Team, spec Spec) []float64 {
				return []float64{math.Nextafter(1.0, 2.0)}
			},
		}
	}
	if rep := Run([]Kernel{mk(1)}, []int{2}); !rep.OK() {
		t.Errorf("1-ulp error rejected under MaxULPs=1:\n%s", rep)
	}
	rep := Run([]Kernel{mk(0)}, []int{2})
	if rep.OK() {
		t.Fatal("1-ulp error accepted under exact comparison")
	}
	if got := rep.Failures[0].ULPs; got != 1 {
		t.Errorf("reported %d ulps, want 1", got)
	}
}

func TestULPDist(t *testing.T) {
	next := math.Nextafter
	cases := []struct {
		a, b float64
		want uint64
	}{
		{1.0, 1.0, 0},
		{0.0, math.Copysign(0, -1), 0}, // both zeros coincide
		{1.0, next(1.0, 2.0), 1},
		{next(1.0, 2.0), 1.0, 1}, // symmetric
		{-1.0, next(-1.0, -2.0), 1},
		// Smallest positive and negative denormals straddle zero at
		// distance two.
		{next(0, 1), next(0, -1), 2},
		{1.0, math.NaN(), math.MaxUint64},
		// Bitwise-identical NaNs short-circuit to 0; compare() never
		// reaches ulpDist for bit-equal elements anyway.
		{math.NaN(), math.NaN(), 0},
	}
	for _, c := range cases {
		if got := ulpDist(c.a, c.b); got != c.want {
			t.Errorf("ulpDist(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestOrderedBitsMonotone(t *testing.T) {
	vals := []float64{
		math.Inf(-1), -1e300, -1.5, -math.SmallestNonzeroFloat64,
		0, math.SmallestNonzeroFloat64, 1.5, 1e300, math.Inf(1),
	}
	for i := 1; i < len(vals); i++ {
		if orderedBits(vals[i-1]) >= orderedBits(vals[i]) {
			t.Errorf("orderedBits not monotone at %v -> %v", vals[i-1], vals[i])
		}
	}
}

// TestResizeVariantResizesTheTeam: the resize column must actually
// change the team size mid-run, and restore it afterwards.
func TestResizeVariantResizesTheTeam(t *testing.T) {
	seen := map[int]bool{}
	k := Kernel{
		Name: "observe-resize", N: 16, MinN: 1, Steps: 4,
		Serial: func(n int) []float64 { return make([]float64, n) },
		Parallel: func(t *parloop.Team, spec Spec) []float64 {
			out := make([]float64, spec.N)
			for s := 0; s < 4; s++ {
				spec.Step(s)
				seen[t.Workers()] = true
				t.ForChunked(spec.N, func(lo, hi int) {})
			}
			return out
		},
	}
	rep := Run([]Kernel{k}, []int{4})
	if !rep.OK() {
		t.Fatalf("unexpected failures:\n%s", rep)
	}
	if len(seen) < 2 {
		t.Errorf("resize column ran at team sizes %v; want several", seen)
	}
}
