package pipeline

import (
	"fmt"
	"math"
)

// Validate machine-checks a plan against the evidence it claims to
// rest on. It enforces legality (no loop failing its budget runs as its
// own region, merges must be all-or-none per group and clear the fused
// budget), closure (every evidence loop is decided, every decision
// cites at least one fact, every fact names its own loop), and honesty
// (each fact kind has obligations the evidence must actually support —
// a budget fact must state the real ratio, a cold fact a real share
// below the threshold). Validate accepts plans the planner would not
// emit — it checks legality and honesty, not optimality — so it can
// gate hand-written or fuzzed plans too.
func Validate(p *Plan, ev Evidence) error {
	if p == nil {
		return fmt.Errorf("pipeline: nil plan")
	}
	if p.Schema != Schema {
		return fmt.Errorf("pipeline: plan schema %d, want %d", p.Schema, Schema)
	}

	// Exact closure: plan loops == evidence loops, no dups, no extras.
	seen := make(map[string]bool, len(p.Loops))
	for i := range p.Loops {
		lp := &p.Loops[i]
		if seen[lp.Loop] {
			return fmt.Errorf("pipeline: duplicate decision for loop %q", lp.Loop)
		}
		seen[lp.Loop] = true
		l := ev.Loop(lp.Loop)
		if l == nil {
			return fmt.Errorf("pipeline: decision for loop %q absent from evidence", lp.Loop)
		}
		if err := validateDecision(lp, l, p, ev); err != nil {
			return err
		}
	}
	for i := range ev.Loops {
		if !seen[ev.Loops[i].Name] {
			return fmt.Errorf("pipeline: evidence loop %q has no decision", ev.Loops[i].Name)
		}
	}
	return nil
}

func validateDecision(lp *LoopPlan, l *LoopEvidence, p *Plan, ev Evidence) error {
	if len(lp.Rationale) == 0 {
		return fmt.Errorf("pipeline: loop %q: empty rationale", lp.Loop)
	}
	for i := range lp.Rationale {
		if err := validateFact(&lp.Rationale[i], l); err != nil {
			return fmt.Errorf("pipeline: loop %q: %w", lp.Loop, err)
		}
	}

	switch lp.Action {
	case Parallelize:
		if !l.BudgetPass {
			return fmt.Errorf("pipeline: loop %q parallelized but fails its sync budget", lp.Loop)
		}
		if !hasKind(lp.Rationale, FactBudget, FactGroupBudget) {
			return fmt.Errorf("pipeline: loop %q parallelized without a budget fact", lp.Loop)
		}
	case Merge:
		if lp.Group == "" || lp.Group != l.Group {
			return fmt.Errorf("pipeline: loop %q merged into group %q but evidence group is %q",
				lp.Loop, lp.Group, l.Group)
		}
		if err := mergeGroupLegal(lp, p, ev); err != nil {
			return err
		}
		if !hasKind(lp.Rationale, FactGroupBudget) {
			return fmt.Errorf("pipeline: loop %q merged without a group-budget fact", lp.Loop)
		}
	case Serial:
		if !hasKind(lp.Rationale, FactBudget, FactCold) {
			return fmt.Errorf("pipeline: loop %q left serial without a demotion fact", lp.Loop)
		}
	default:
		return fmt.Errorf("pipeline: loop %q: unknown action %q", lp.Loop, lp.Action)
	}
	return nil
}

// mergeGroupLegal: every evidence loop in the group must carry the
// Merge action (all-or-none), the group needs >= 2 members, and the
// fused region must clear the combined budget.
func mergeGroupLegal(lp *LoopPlan, p *Plan, ev Evidence) error {
	var members []*LoopEvidence
	minw := 0.0
	for i := range ev.Loops {
		m := &ev.Loops[i]
		if m.Group != lp.Group {
			continue
		}
		if d, ok := p.Decision(m.Name); !ok || d.Action != Merge {
			return fmt.Errorf("pipeline: group %q splits: member %q not merged", lp.Group, m.Name)
		}
		members = append(members, m)
		minw = max(minw, m.MinWorkCycles)
	}
	if len(members) < 2 {
		return fmt.Errorf("pipeline: group %q merges %d loop(s); need >= 2", lp.Group, len(members))
	}
	if wps := mergedWorkPerSync(members); wps < minw {
		return fmt.Errorf("pipeline: group %q fused region fails the budget: %.0f cycles/sync vs %.0f",
			lp.Group, wps, minw)
	}
	return nil
}

// validateFact checks one fact's obligations against the evidence.
func validateFact(f *Fact, l *LoopEvidence) error {
	if f.Loop != l.Name {
		return fmt.Errorf("fact %q names loop %q", f.Kind, f.Loop)
	}
	switch f.Kind {
	case FactBudget:
		if want := budgetRatio(l.WorkPerSyncCycles, l.MinWorkCycles); !close64(f.Value, want) {
			return fmt.Errorf("budget fact ratio %.6g does not match evidence %.6g", f.Value, want)
		}
	case FactGroupBudget:
		if l.Group == "" {
			return fmt.Errorf("group-budget fact on ungrouped loop")
		}
	case FactRank:
		if !close64(f.Value, l.RankShare) {
			return fmt.Errorf("rank fact share %.6g does not match evidence %.6g", f.Value, l.RankShare)
		}
	case FactCold:
		if !close64(f.Value, l.RankShare) || l.RankShare >= minRankShare {
			return fmt.Errorf("cold fact share %.6g vs evidence %.6g (threshold %.6g)",
				f.Value, l.RankShare, minRankShare)
		}
	default:
		return fmt.Errorf("unknown fact kind %q", f.Kind)
	}
	return nil
}

func hasKind(facts []Fact, kinds ...string) bool {
	for i := range facts {
		for _, k := range kinds {
			if facts[i].Kind == k {
				return true
			}
		}
	}
	return false
}

func close64(a, b float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	return d <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}
