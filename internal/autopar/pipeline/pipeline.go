// Package pipeline closes the loop the paper did by hand: profile the
// run, check the dependences, then decide — per loop — whether to
// parallelize, leave serial, merge adjacent regions, or fission a
// mixed body.
//
// The static planner in internal/autopar reasons over a loop-nest IR;
// this package instead plans from *evidence* gathered off a real
// traced run:
//
//   - hot-loop rankings (analyze.Report.Ranked) say where the time
//     went — the paper's §4 "profile the program, rank the loops" step;
//   - check.Tracker barrier-epoch dependence evidence: an observed
//     conflict demotes a loop to serial unconditionally (the
//     C$doacross misuse of §2 caught in the act), while a clean
//     tracked run promotes a loop whose static verdict is merely
//     "unknown" — clean evidence plus a conservative static verdict;
//   - the analyze engine's Table 1 budget and imbalance verdicts say
//     whether a dependence-clean loop amortizes its synchronization
//     (§3's minimum work-per-sync criterion), whether adjacent cheap
//     regions should merge into one (Examples 2-3), and whether a
//     mixed body should fission so its parallel part still runs
//     parallel (the loop-fission transform).
//
// PlanFromEvidence turns that evidence into a Plan whose every
// decision carries a machine-checkable Rationale: Validate rejects any
// plan that parallelizes a flagged loop, fissions without part-local
// justification, or states a fact the evidence does not support. The
// executor seam (f3d.StepShape via ShapeFromPlan) applies a plan to
// the next run, and internal/check's plan-conformance cells prove
// every applied transform reproduces the serial residual history
// bitwise.
package pipeline

import "sort"

// Schema versions the Plan JSON shape (bumped on incompatible change).
const Schema = 1

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
	// Fission splits a mixed body: the parts that may run parallel
	// become their own regions, the rest stay serial.
	Fission Action = "fission"
)

// StaticVerdict is the conservative compile-time dependence verdict
// attached to a loop (e.g. from autopar.Nest.Parallelizable, or a
// hand-audited structure declaration like F3DStructure).
type StaticVerdict string

const (
	// StaticUnknown: no static certificate either way. Alone it plans
	// serial — promotion then needs clean Tracker evidence.
	StaticUnknown StaticVerdict = "unknown"
	// StaticParallel: statically proven iteration-independent.
	StaticParallel StaticVerdict = "parallel"
	// StaticSerial: a statically proven loop-carried dependence. Never
	// parallelized, even if a particular tracked run observed no
	// conflict (the dependence may be input-dependent).
	StaticSerial StaticVerdict = "serial"
)

// Fact kinds appearing in a Rationale. Validate knows each kind's
// obligations against the evidence.
const (
	// FactConflict: the Tracker observed loop-carried conflicts.
	FactConflict = "conflict"
	// FactTrackerClean: a dependence-instrumented run observed none.
	FactTrackerClean = "tracker-clean"
	// FactStatic: the static verdict behind the decision.
	FactStatic = "static"
	// FactNoEvidence: static verdict unknown and no tracked run —
	// conservative default, serial.
	FactNoEvidence = "no-dependence-evidence"
	// FactBudget: the loop's own Table 1 work-per-sync verdict.
	FactBudget = "budget"
	// FactGroupBudget: the merged group's combined Table 1 verdict.
	FactGroupBudget = "group-budget"
	// FactRank: the loop's share of profiled time.
	FactRank = "rank"
	// FactCold: share below the planning threshold — not worth the
	// risk of parallel overhead on a loop that cannot matter.
	FactCold = "cold"
	// FactPart: a part-level verdict behind a fission (or a fission
	// refusal).
	FactPart = "part"
)

// Fact is one machine-checkable piece of a decision's rationale: a
// kind, the loop (and optionally the part) it is about, a
// human-readable detail, and the numeric value the claim rests on
// (ratio, share, count — per kind).
type Fact struct {
	Kind   string  `json:"kind"`
	Loop   string  `json:"loop"`
	Part   string  `json:"part,omitempty"`
	Detail string  `json:"detail,omitempty"`
	Value  float64 `json:"value,omitempty"`
}

// LoopPlan is the decision for one profiled loop.
type LoopPlan struct {
	Loop   string `json:"loop"`
	Action Action `json:"action"`
	// Group names the merge group (Action == Merge only).
	Group string `json:"group,omitempty"`
	// ParallelParts and SerialParts partition the loop's declared
	// parts (Action == Fission only).
	ParallelParts []string `json:"parallel_parts,omitempty"`
	SerialParts   []string `json:"serial_parts,omitempty"`
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

// Conflict is one observed loop-carried dependence, the wire-friendly
// projection of a check.Race (check.PlanConflicts converts).
type Conflict struct {
	// Array is the tracked array; Index the conflicting element.
	Array string `json:"array"`
	Index int    `json:"index"`
	// Kind is "write-write", "write-read" or "read-write".
	Kind string `json:"kind"`
	// Detail carries the full race description.
	Detail string `json:"detail,omitempty"`
}

// PartEvidence describes one part of a loop's mixed body: a
// statically delimited sub-computation that fission could isolate
// into its own region (or leave serial).
type PartEvidence struct {
	// Name is the part's label; the post-fission loop is named
	// "<loop>-<part>".
	Name string `json:"name"`
	// WorkFrac is the part's declared share of the loop's work.
	WorkFrac float64 `json:"work_frac"`
	// Static is the part's own dependence verdict.
	Static StaticVerdict `json:"static"`
	// Conflicts are tracker races attributed to this part.
	Conflicts []Conflict `json:"conflicts,omitempty"`
}

// LoopEvidence is everything the planner knows about one profiled
// loop: ranking, budget, imbalance, dependence evidence and declared
// structure.
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

	// Static is the conservative static verdict; Tracked reports
	// whether a dependence-instrumented run was performed; Conflicts
	// are the races it observed (loop-level, i.e. not attributed to a
	// specific part).
	Static    StaticVerdict `json:"static"`
	Tracked   bool          `json:"tracked,omitempty"`
	Conflicts []Conflict    `json:"conflicts,omitempty"`

	// Group names the loop's merge group: adjacent regions that could
	// fuse into one (empty = not fusible with anything).
	Group string `json:"group,omitempty"`

	// Parts declares the loop's mixed-body structure, if any.
	Parts []PartEvidence `json:"parts,omitempty"`
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

// PartStructure declares one part of a loop's body for evidence
// builders (name, declared work share, static verdict).
type PartStructure struct {
	Name     string
	WorkFrac float64
	Static   StaticVerdict
}

// LoopStructure is the static declaration an evidence builder joins
// with a profiled loop: the conservative dependence verdict, the merge
// group, and the mixed-body parts. Loops traced without a matching
// structure get StaticUnknown and no group — the conservative default.
type LoopStructure struct {
	Name   string
	Static StaticVerdict
	Group  string
	Parts  []PartStructure
}
