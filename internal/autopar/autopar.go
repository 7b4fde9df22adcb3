// Package autopar is a loop-nest dependence analyzer and
// parallelization planner: a miniature of the automatic-parallelizing
// compilers the paper's §8 weighs ("parallelizing compilers don't work
// and they never will" — Wolfe) against the semi-automatic,
// profile-guided directive approach the paper (and Hisley's ARL study)
// advocate.
//
// The package represents loop nests over affine array subscripts,
// decides which loops are parallelizable (no loop-carried dependence),
// and plans where to put the parallel region under different
// strategies:
//
//   - Innermost: parallelize the innermost parallelizable loop — what a
//     vectorizing mindset produces, and the worst case for
//     synchronization cost (paper Example 1, Table 2 "inner loop");
//   - Outermost: parallelize the outermost parallelizable loop of every
//     nest, however small — what a fully automatic compiler does, and
//     the source of Hisley's observed "parallel slowdown" on cheap
//     loops;
//   - CostGuided: parallelize the outermost parallelizable loop only
//     when the nest's work clears the Table 1 threshold — the paper's
//     §4 methodology in rule form.
//
// Plans compose into a model.StepProfile, so the three strategies'
// whole-program scaling can be predicted and compared on the machine
// models (see the §8 reproduction in the package tests and
// cmd/autopar).
package autopar

import (
	"fmt"
	"strings"

	"repro/internal/model"
)

// Affine is an affine subscript expression: Const + Σ Coeffs[v]·v over
// loop variables v.
type Affine struct {
	Const  int
	Coeffs map[string]int
}

// Idx returns the affine expression for a bare loop variable.
func Idx(v string) Affine {
	return Affine{Coeffs: map[string]int{v: 1}}
}

// Plus returns the expression shifted by a constant: v + c.
func (a Affine) Plus(c int) Affine {
	out := Affine{Const: a.Const + c, Coeffs: map[string]int{}}
	for v, k := range a.Coeffs {
		out.Coeffs[v] = k
	}
	return out
}

// ConstIdx returns a constant subscript.
func ConstIdx(c int) Affine { return Affine{Const: c} }

// dependsOnlyOn reports whether the expression involves exactly the
// variable v (with nonzero coefficient) and no other variable.
func (a Affine) dependsOnlyOn(v string) (coeff int, ok bool) {
	for w, c := range a.Coeffs {
		if c == 0 {
			continue
		}
		if w != v {
			return 0, false
		}
		coeff = c
	}
	if coeff == 0 {
		return 0, false
	}
	return coeff, true
}

// String implements fmt.Stringer.
func (a Affine) String() string {
	parts := []string{}
	for v, c := range a.Coeffs {
		switch c {
		case 0:
		case 1:
			parts = append(parts, v)
		default:
			parts = append(parts, fmt.Sprintf("%d%s", c, v))
		}
	}
	if a.Const != 0 || len(parts) == 0 {
		parts = append(parts, fmt.Sprintf("%d", a.Const))
	}
	return strings.Join(parts, "+")
}

// Access is one array reference executed by the innermost iteration.
type Access struct {
	Array string
	Index []Affine
	Write bool
}

// Read and WriteTo build accesses concisely.
func Read(array string, index ...Affine) Access {
	return Access{Array: array, Index: index}
}

// WriteTo marks a written reference.
func WriteTo(array string, index ...Affine) Access {
	return Access{Array: array, Index: index, Write: true}
}

// Loop is one level of a nest.
type Loop struct {
	Var string
	N   int // trip count
}

// Nest is a perfect loop nest with affine array accesses.
type Nest struct {
	Name  string
	Loops []Loop // outermost first
	// Accesses performed by one innermost iteration.
	Accesses []Access
	// Private lists arrays that are (or can be made) private to a
	// parallel iteration — the directive's `local(...)` clause; accesses
	// to them never create cross-iteration dependences.
	Private []string
	// WorkPerIter is the computational work of one innermost iteration,
	// in cycles (the cost-model input).
	WorkPerIter float64
	// Calls is how many times the nest executes per time step.
	Calls int
}

// TotalWork returns the nest's single-processor work per step in cycles.
func (n *Nest) TotalWork() float64 {
	iters := 1.0
	for _, l := range n.Loops {
		iters *= float64(l.N)
	}
	calls := n.Calls
	if calls == 0 {
		calls = 1
	}
	return iters * n.WorkPerIter * float64(calls)
}

// loopIndex returns the position of var v in the nest, or -1.
func (n *Nest) loopIndex(v string) int {
	for i, l := range n.Loops {
		if l.Var == v {
			return i
		}
	}
	return -1
}

// isPrivate reports whether the array is iteration-private.
func (n *Nest) isPrivate(array string) bool {
	for _, p := range n.Private {
		if p == array {
			return true
		}
	}
	return false
}

// Parallelizable reports whether the loop with variable v carries no
// dependence, i.e. distinct values of v can never touch the same array
// element through a (write, any) access pair.
//
// The test is the conservative single-subscript test classical
// vectorizers use: a pair is independent with respect to v if some
// subscript position matches in both references, depends only on v with
// equal coefficients, and the constant difference is either zero (same
// iteration only) or not divisible by the coefficient (no integer
// solution). Anything the test cannot certify is reported as a
// dependence — conservative, like the compilers the paper describes.
func (n *Nest) Parallelizable(v string) bool {
	if n.loopIndex(v) < 0 {
		return false
	}
	for i, a := range n.Accesses {
		if !a.Write || n.isPrivate(a.Array) {
			continue
		}
		for j, b := range n.Accesses {
			if i == j && !b.Write {
				continue
			}
			if b.Array != a.Array || n.isPrivate(b.Array) {
				continue
			}
			if !independentWRT(a, b, v) {
				return false
			}
		}
	}
	return true
}

// independentWRT applies the subscript test to one pair.
func independentWRT(a, b Access, v string) bool {
	if len(a.Index) != len(b.Index) {
		// Different shapes — cannot reason; be conservative.
		return false
	}
	for d := range a.Index {
		ca, oka := a.Index[d].dependsOnlyOn(v)
		cb, okb := b.Index[d].dependsOnlyOn(v)
		if !oka || !okb || ca != cb {
			continue
		}
		diff := b.Index[d].Const - a.Index[d].Const
		if diff == 0 {
			return true // collision requires the same v
		}
		if diff%ca != 0 {
			return true // no integer iteration distance
		}
		// Nonzero integer distance: genuine loop-carried dependence via
		// this subscript; keep looking for another certifying subscript.
	}
	return false
}

// Strategy selects how a planner places parallel regions.
type Strategy int

const (
	// Innermost parallelizes the innermost parallelizable loop.
	Innermost Strategy = iota
	// Outermost parallelizes the outermost parallelizable loop of every
	// nest regardless of size (the fully automatic compiler).
	Outermost
	// CostGuided parallelizes the outermost parallelizable loop only if
	// the nest clears the Table 1 minimum-work threshold (the paper's
	// profile-guided directives).
	CostGuided
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	names := [...]string{
		"innermost", "outermost", "cost-guided",
	}
	if s >= 0 && int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Plan is the decision for one nest.
type Plan struct {
	Nest *Nest
	// Depth is the parallelized loop level (0 = outermost); -1 means the
	// nest stays serial.
	Depth int
	// Reason explains the decision.
	Reason string
}

// Parallel reports whether the plan parallelizes the nest.
func (p Plan) Parallel() bool { return p.Depth >= 0 }

// Machine holds the planning cost parameters (Table 1 inputs).
type Machine struct {
	Procs    int
	SyncCost float64 // cycles per synchronization event
	Budget   float64 // overhead budget (model.OverheadBudget)
}

// PlanNest decides where (if anywhere) to parallelize one nest.
func PlanNest(n *Nest, strat Strategy, m Machine) Plan {
	if m.Procs < 1 {
		panic(fmt.Sprintf("autopar: PlanNest procs must be >= 1, got %d", m.Procs))
	}
	var candidates []int
	for d, l := range n.Loops {
		if n.Parallelizable(l.Var) {
			candidates = append(candidates, d)
		}
	}
	if len(candidates) == 0 {
		return Plan{Nest: n, Depth: -1, Reason: "no parallelizable loop"}
	}
	switch strat {
	case Innermost:
		d := candidates[len(candidates)-1]
		return Plan{Nest: n, Depth: d, Reason: fmt.Sprintf("innermost parallelizable loop %s", n.Loops[d].Var)}
	case Outermost:
		d := candidates[0]
		return Plan{Nest: n, Depth: d, Reason: fmt.Sprintf("outermost parallelizable loop %s", n.Loops[d].Var)}
	case CostGuided:
		d := candidates[0]
		minWork := model.MinWorkPerLoop(m.Procs, m.SyncCost, m.Budget)
		perRegion := n.regionWork(d)
		if perRegion < minWork {
			return Plan{Nest: n, Depth: -1,
				Reason: fmt.Sprintf("work per region %.3g below Table 1 threshold %.3g", perRegion, minWork)}
		}
		return Plan{Nest: n, Depth: d, Reason: fmt.Sprintf("loop %s clears Table 1 threshold", n.Loops[d].Var)}
	default:
		panic(fmt.Sprintf("autopar: unknown strategy %v", strat))
	}
}

// regionWork returns the work (cycles) inside one parallel region when
// the nest is parallelized at depth d: everything enclosed by that loop
// and the loops inside it.
func (n *Nest) regionWork(d int) float64 {
	w := n.WorkPerIter
	for i := d; i < len(n.Loops); i++ {
		w *= float64(n.Loops[i].N)
	}
	return w
}

// regionsPerStep returns how many parallel regions per step a plan at
// depth d opens: one per execution of the loops outside the region,
// times the call count.
func (n *Nest) regionsPerStep(d int) int {
	r := 1
	for i := 0; i < d; i++ {
		r *= n.Loops[i].N
	}
	calls := n.Calls
	if calls == 0 {
		calls = 1
	}
	return r * calls
}

// PlanProgram plans every nest and composes the result into a
// model.StepProfile (in cycles), ready for scaling prediction.
func PlanProgram(nests []*Nest, strat Strategy, m Machine) ([]Plan, model.StepProfile) {
	plans := make([]Plan, len(nests))
	var sp model.StepProfile
	for i, n := range nests {
		p := PlanNest(n, strat, m)
		plans[i] = p
		if !p.Parallel() {
			sp.SerialCycles += n.TotalWork()
			continue
		}
		sp.Loops = append(sp.Loops, model.LoopClass{
			Name:        n.Name,
			WorkCycles:  n.TotalWork(),
			Parallelism: n.Loops[p.Depth].N,
			SyncEvents:  n.regionsPerStep(p.Depth),
		})
	}
	return plans, sp
}

// PredictSpeedup plans the program under the strategy and returns the
// predicted whole-program speedup on the machine — the number Hisley's
// study compares across approaches.
func PredictSpeedup(nests []*Nest, strat Strategy, m Machine) float64 {
	_, sp := PlanProgram(nests, strat, m)
	return sp.PredictSpeedup(m.Procs, m.SyncCost)
}
