// Package pipeline closes the loop the paper did by hand: profile the
// run, rank the loops, then decide — per loop — whether to
// parallelize, leave serial, or merge adjacent regions.
//
// The static planner in internal/autopar reasons over a loop-nest IR;
// this package instead plans from *evidence* gathered off a real
// traced run of loops whose independence was settled when they were
// declared (F3DStructure: the f3d phases are audited by construction):
//
//   - hot-loop rankings (analyze.Report.Ranked) say where the time
//     went — the paper's §4 "profile the program, rank the loops" step;
//   - the analyze engine's Table 1 budget verdicts say whether a loop
//     amortizes its synchronization (§3's minimum work-per-sync
//     criterion), and whether adjacent cheap regions should merge into
//     one (Examples 2-3).
//
// The declared structure is the allow-list: a traced loop nobody
// declared is not planned. PlanFromEvidence turns the evidence into a
// Plan whose every decision carries a machine-checkable Rationale:
// Validate rejects any plan that parallelizes a loop failing its
// budget, splits a merge group, or states a fact the evidence does not
// support. The executor seam (f3d.StepShape via ShapeFromPlan) applies
// a plan to the next run, and internal/check's plan cells prove every
// shape the solver runs reproduces the serial residual history
// bitwise.
package pipeline

import "sort"

// Schema versions the Plan JSON shape (bumped on incompatible change).
const Schema = 2

// Action is a per-loop plan decision.
type Action string

const (
	// Parallelize runs the loop as its own parallel region.
	Parallelize Action = "parallelize"
	// Serial leaves the loop on one processor.
	Serial Action = "serial"
	// Merge hoists the loop into a single region shared with its
	// group (Examples 2-3: adjacent regions fused so one fork-join
	// amortizes across all of them, barriers preserving order).
	Merge Action = "merge"
)

// Fact kinds appearing in a Rationale. Validate knows each kind's
// obligations against the evidence.
const (
	// FactBudget: the loop's own Table 1 work-per-sync verdict.
	FactBudget = "budget"
	// FactGroupBudget: the merged group's combined Table 1 verdict.
	FactGroupBudget = "group-budget"
	// FactRank: the loop's share of profiled time.
	FactRank = "rank"
	// FactCold: share below the planning threshold — not worth the
	// risk of parallel overhead on a loop that cannot matter.
	FactCold = "cold"
)

// Fact is one machine-checkable piece of a decision's rationale: a
// kind, the loop it is about, a human-readable detail, and the numeric
// value the claim rests on (ratio or share — per kind).
type Fact struct {
	Kind   string  `json:"kind"`
	Loop   string  `json:"loop"`
	Detail string  `json:"detail,omitempty"`
	Value  float64 `json:"value,omitempty"`
}

// LoopPlan is the decision for one profiled loop.
type LoopPlan struct {
	Loop   string `json:"loop"`
	Action Action `json:"action"`
	// Group names the merge group (Action == Merge only).
	Group string `json:"group,omitempty"`
	// Rationale names the evidence behind the decision. Never empty
	// in a valid plan.
	Rationale []Fact `json:"rationale"`
}

// Plan is the full per-loop decision set for one evidence source,
// hottest loop first.
type Plan struct {
	Schema int        `json:"schema"`
	Source string     `json:"source,omitempty"`
	Procs  int        `json:"procs,omitempty"`
	Loops  []LoopPlan `json:"loops"`
}

// Decision returns the plan entry for a loop.
func (p *Plan) Decision(loop string) (LoopPlan, bool) {
	for _, lp := range p.Loops {
		if lp.Loop == loop {
			return lp, true
		}
	}
	return LoopPlan{}, false
}

// Count returns how many loops carry the given action.
func (p *Plan) Count(a Action) int {
	n := 0
	for _, lp := range p.Loops {
		if lp.Action == a {
			n++
		}
	}
	return n
}

// LoopEvidence is everything the planner knows about one profiled,
// declared loop: ranking, budget, imbalance and merge group.
type LoopEvidence struct {
	Name string `json:"name"`

	// RankShare is the loop's fraction of total profiled time (the
	// report's Ranked profile); WorkNs its absolute work.
	RankShare float64 `json:"rank_share"`
	WorkNs    int64   `json:"work_ns"`

	// Workers and SyncEvents come from the traced regions.
	Workers    int `json:"workers"`
	SyncEvents int `json:"sync_events"`

	// WorkPerSyncCycles vs MinWorkCycles is the Table 1 criterion;
	// BudgetPass its verdict (precomputed so evidence transforms can
	// carry verdicts for loops that did not run as regions).
	WorkPerSyncCycles float64 `json:"work_per_sync_cycles"`
	MinWorkCycles     float64 `json:"min_work_cycles"`
	BudgetPass        bool    `json:"budget_pass"`

	// ImbalanceFrac and BarrierFrac are the analyze attribution's
	// loss shares, carried for rationale detail.
	ImbalanceFrac float64 `json:"imbalance_frac,omitempty"`
	BarrierFrac   float64 `json:"barrier_frac,omitempty"`

	// Group names the loop's merge group: adjacent regions that could
	// fuse into one (empty = not fusible with anything).
	Group string `json:"group,omitempty"`
}

// Evidence is the planner's full input for one run.
type Evidence struct {
	// Source identifies the traced run the evidence came from.
	Source string `json:"source,omitempty"`
	// Procs is the processor count the run used (plan context).
	Procs int `json:"procs,omitempty"`
	// SyncCostCycles is the Table 1 synchronization cost the budget
	// verdicts were computed under.
	SyncCostCycles float64        `json:"sync_cost_cycles,omitempty"`
	Loops          []LoopEvidence `json:"loops"`
}

// Loop returns a pointer to the named loop's evidence, or nil.
func (ev *Evidence) Loop(name string) *LoopEvidence {
	for i := range ev.Loops {
		if ev.Loops[i].Name == name {
			return &ev.Loops[i]
		}
	}
	return nil
}

// sortLoops orders evidence hottest-first (work desc, name asc) —
// the ranked-loop order plans are emitted in.
func sortLoops(loops []LoopEvidence) []LoopEvidence {
	out := append([]LoopEvidence(nil), loops...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].WorkNs != out[j].WorkNs {
			return out[i].WorkNs > out[j].WorkNs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// LoopStructure declares one loop an evidence builder may plan, and
// the merge group it belongs to (empty = fuses with nothing). The
// declared loops are the allow-list: a traced loop without a
// declaration is left out of the evidence.
type LoopStructure struct {
	Name  string
	Group string
}
