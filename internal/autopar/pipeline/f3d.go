package pipeline

import (
	"strings"

	"repro/internal/f3d"
)

// F3DStructure declares the cache solver's phase loops for the
// planner, matching the labels a job traced with
// f3d.Job.WithPhaseTrace(prefix) emits ("<prefix>/<phase>").
//
// Every phase is iteration-independent — the solver's decomposition
// (J/K planes, L columns) was audited by construction in internal/f3d
// — so the planner's decisions reduce to the paper's cost questions:
// is the phase hot enough, and does it amortize its synchronization?
// The per-phase loops share merge group "step": fusing them is exactly
// the Example 3 hoisted-region transform the solver's Merged mode
// implements. "step" itself is the loop a merged run traces.
func F3DStructure(prefix string) []LoopStructure {
	p := func(s string) string {
		if prefix == "" {
			return s
		}
		return prefix + "/" + s
	}
	return []LoopStructure{
		{Name: p("bc"), Group: "step"},
		{Name: p("rhs"), Group: "step"},
		{Name: p("sweep-jk"), Group: "step"},
		{Name: p("sweep-l"), Group: "step"},
		{Name: p("step")},
	}
}

// ShapeFromPlan lowers a plan over the f3d phase loops into the
// executable StepShape the cache solver runs: the plan from run N
// becomes run N+1's region structure. Loops outside the prefix are
// ignored; phases the plan does not mention stay serial (the
// conservative default — an unplanned phase has no evidence behind
// running it parallel).
func ShapeFromPlan(p *Plan, prefix string) f3d.StepShape {
	var sh f3d.StepShape
	strip := func(name string) (string, bool) {
		if prefix == "" {
			return name, true
		}
		return strings.CutPrefix(name, prefix+"/")
	}
	for _, lp := range p.Loops {
		phase, ok := strip(lp.Loop)
		if !ok {
			continue
		}
		on := lp.Action == Parallelize || lp.Action == Merge
		if lp.Action == Merge {
			sh.Merged = true
		}
		switch phase {
		case "bc":
			sh.BC = on
		case "rhs":
			sh.RHSJK, sh.RHSL = on, on
		case "sweep-jk":
			sh.SweepJK = on
		case "sweep-l":
			sh.SweepL = on
		case "step":
			// Evidence from a merged-mode run: one loop for the whole
			// step. Parallel keeps the hoisted region; anything else
			// collapses the step to serial.
			if on {
				sh.Merged = true
				sh.RHSJK, sh.RHSL, sh.SweepJK, sh.SweepL = true, true, true, true
			}
		}
	}
	return sh
}
