package pipeline

import (
	"fmt"
	"math"
)

// Validate machine-checks a plan against the evidence it claims to
// rest on. It enforces legality (no dependence-flagged loop may run
// parallel, fissions must partition the declared parts, merges must be
// all-or-none per group), closure (every evidence loop is decided,
// every decision cites at least one fact, every fact names its own
// loop), and honesty (each fact kind has obligations the evidence must
// actually support — a conflict fact requires observed conflicts, a
// budget fact must state the real ratio). Validate accepts plans the
// planner would not emit — it checks legality and honesty, not
// optimality — so it can gate hand-written or fuzzed plans too.
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
		if err := validateFact(&lp.Rationale[i], l, ev); err != nil {
			return fmt.Errorf("pipeline: loop %q: %w", lp.Loop, err)
		}
	}

	switch lp.Action {
	case Parallelize:
		if err := parallelLegal(l); err != nil {
			return fmt.Errorf("pipeline: loop %q parallelized illegally: %w", lp.Loop, err)
		}
		if !l.BudgetPass {
			return fmt.Errorf("pipeline: loop %q parallelized but fails its sync budget", lp.Loop)
		}
		if !hasKind(lp.Rationale, FactStatic, FactTrackerClean) {
			return fmt.Errorf("pipeline: loop %q parallelized without a dependence fact", lp.Loop)
		}
		if !hasKind(lp.Rationale, FactBudget, FactGroupBudget) {
			return fmt.Errorf("pipeline: loop %q parallelized without a budget fact", lp.Loop)
		}
	case Merge:
		if err := parallelLegal(l); err != nil {
			return fmt.Errorf("pipeline: loop %q merged illegally: %w", lp.Loop, err)
		}
		if lp.Group == "" || lp.Group != l.Group {
			return fmt.Errorf("pipeline: loop %q merged into group %q but evidence group is %q",
				lp.Loop, lp.Group, l.Group)
		}
		if err := mergeGroupLegal(lp, p, ev); err != nil {
			return err
		}
		if !hasKind(lp.Rationale, FactStatic, FactTrackerClean) {
			return fmt.Errorf("pipeline: loop %q merged without a dependence fact", lp.Loop)
		}
		if !hasKind(lp.Rationale, FactGroupBudget) {
			return fmt.Errorf("pipeline: loop %q merged without a group-budget fact", lp.Loop)
		}
	case Fission:
		if err := fissionLegal(lp, l); err != nil {
			return err
		}
	case Serial:
		if !hasKind(lp.Rationale, FactConflict, FactStatic, FactNoEvidence, FactBudget, FactCold, FactPart) {
			return fmt.Errorf("pipeline: loop %q left serial without a demotion fact", lp.Loop)
		}
	default:
		return fmt.Errorf("pipeline: loop %q: unknown action %q", lp.Loop, lp.Action)
	}
	return nil
}

// parallelLegal: the loop-level dependence obligations for running the
// whole body parallel (Parallelize or Merge).
func parallelLegal(l *LoopEvidence) error {
	if len(l.Conflicts) > 0 {
		return fmt.Errorf("tracker observed %d conflict(s)", len(l.Conflicts))
	}
	if l.Static == StaticSerial {
		return fmt.Errorf("statically proven loop-carried dependence")
	}
	for i := range l.Parts {
		if len(l.Parts[i].Conflicts) > 0 {
			return fmt.Errorf("part %q has observed conflicts", l.Parts[i].Name)
		}
		if l.Parts[i].Static == StaticSerial {
			return fmt.Errorf("part %q is statically serial", l.Parts[i].Name)
		}
	}
	if l.Static != StaticParallel && !l.Tracked {
		return fmt.Errorf("no dependence evidence (static unknown, no tracked run)")
	}
	return nil
}

// mergeGroupLegal: every clean evidence loop in the group must carry
// the Merge action (all-or-none), the group needs >= 2 members, and
// the fused region must clear the combined budget.
func mergeGroupLegal(lp *LoopPlan, p *Plan, ev Evidence) error {
	var members []*LoopEvidence
	for i := range ev.Loops {
		m := &ev.Loops[i]
		if m.Group != lp.Group {
			continue
		}
		d, ok := p.Decision(m.Name)
		if ok && d.Action == Merge {
			if parallelLegal(m) != nil {
				return fmt.Errorf("pipeline: group %q merges ineligible loop %q", lp.Group, m.Name)
			}
			members = append(members, m)
			continue
		}
		// A group member not merged must itself be an eligible merge
		// candidate only if it was clean — but leaving a clean member
		// out of the fused region is allowed only when it is not in
		// the plan at all (which closure already forbids). All-or-none:
		if parallelLegal(m) == nil {
			return fmt.Errorf("pipeline: group %q splits: member %q not merged", lp.Group, m.Name)
		}
	}
	if len(members) < 2 {
		return fmt.Errorf("pipeline: group %q merges %d loop(s); need >= 2", lp.Group, len(members))
	}
	minw := 0.0
	for _, m := range members {
		if m.MinWorkCycles > minw {
			minw = m.MinWorkCycles
		}
	}
	if wps := mergedWorkPerSync(members); wps < minw {
		return fmt.Errorf("pipeline: group %q fused region fails the budget: %.0f cycles/sync vs %.0f",
			lp.Group, wps, minw)
	}
	return nil
}

func fissionLegal(lp *LoopPlan, l *LoopEvidence) error {
	if len(l.Parts) == 0 {
		return fmt.Errorf("pipeline: loop %q fissioned but declares no parts", lp.Loop)
	}
	if len(l.Conflicts) > 0 {
		return fmt.Errorf("pipeline: loop %q fissioned despite loop-level conflicts", lp.Loop)
	}
	if l.Static == StaticSerial {
		return fmt.Errorf("pipeline: loop %q fissioned despite a static serial verdict", lp.Loop)
	}
	if len(lp.ParallelParts) == 0 {
		return fmt.Errorf("pipeline: loop %q fissioned with no parallel part", lp.Loop)
	}
	// ParallelParts ∪ SerialParts must partition the declared parts.
	assigned := map[string]string{}
	for _, n := range lp.ParallelParts {
		assigned[n] = "parallel"
	}
	for _, n := range lp.SerialParts {
		if assigned[n] != "" {
			return fmt.Errorf("pipeline: loop %q: part %q both parallel and serial", lp.Loop, n)
		}
		assigned[n] = "serial"
	}
	if len(assigned) != len(lp.ParallelParts)+len(lp.SerialParts) {
		return fmt.Errorf("pipeline: loop %q: duplicate part assignment", lp.Loop)
	}
	if len(assigned) != len(l.Parts) {
		return fmt.Errorf("pipeline: loop %q: fission assigns %d part(s), evidence declares %d",
			lp.Loop, len(assigned), len(l.Parts))
	}
	for i := range l.Parts {
		pt := &l.Parts[i]
		side, ok := assigned[pt.Name]
		if !ok {
			return fmt.Errorf("pipeline: loop %q: declared part %q unassigned", lp.Loop, pt.Name)
		}
		if side != "parallel" {
			continue
		}
		if !partParallelizable(l, pt) {
			return fmt.Errorf("pipeline: loop %q: part %q parallelized without dependence evidence",
				lp.Loop, pt.Name)
		}
		frac := clampFrac(pt.WorkFrac)
		if wps := l.WorkPerSyncCycles * frac; wps < l.MinWorkCycles {
			return fmt.Errorf("pipeline: loop %q: part %q parallelized but fails the budget (%.0f vs %.0f)",
				lp.Loop, pt.Name, wps, l.MinWorkCycles)
		}
		if share := l.RankShare * frac; share < minRankShare {
			return fmt.Errorf("pipeline: loop %q: part %q parallelized below the rank threshold", lp.Loop, pt.Name)
		}
	}
	return nil
}

// validateFact checks one fact's obligations against the evidence.
func validateFact(f *Fact, l *LoopEvidence, ev Evidence) error {
	if f.Loop != l.Name {
		return fmt.Errorf("fact %q names loop %q", f.Kind, f.Loop)
	}
	var pt *PartEvidence
	if f.Part != "" {
		for i := range l.Parts {
			if l.Parts[i].Name == f.Part {
				pt = &l.Parts[i]
				break
			}
		}
		if pt == nil {
			return fmt.Errorf("fact %q names unknown part %q", f.Kind, f.Part)
		}
	}
	switch f.Kind {
	case FactConflict:
		n := len(l.Conflicts)
		if pt != nil {
			n = len(pt.Conflicts)
		}
		if n == 0 {
			return fmt.Errorf("conflict fact but no observed conflicts")
		}
		if f.Value != float64(n) {
			return fmt.Errorf("conflict fact claims %.0f conflict(s), evidence has %d", f.Value, n)
		}
	case FactTrackerClean:
		if !l.Tracked || len(l.Conflicts) > 0 {
			return fmt.Errorf("tracker-clean fact unsupported (tracked=%v, %d conflicts)",
				l.Tracked, len(l.Conflicts))
		}
	case FactStatic:
		v := l.Static
		if pt != nil {
			v = pt.Static
		}
		if v != StaticParallel && v != StaticSerial {
			return fmt.Errorf("static fact but verdict is %q", v)
		}
	case FactNoEvidence:
		if pt == nil {
			if l.Static == StaticParallel || l.Tracked {
				return fmt.Errorf("no-evidence fact but evidence exists")
			}
		} else if partParallelizable(l, pt) || len(pt.Conflicts) > 0 || pt.Static == StaticSerial {
			return fmt.Errorf("no-evidence fact for part %q but evidence exists", f.Part)
		}
	case FactBudget:
		wps, minw := l.WorkPerSyncCycles, l.MinWorkCycles
		if pt != nil {
			wps *= clampFrac(pt.WorkFrac)
		}
		if !close64(f.Value, budgetRatio(wps, minw)) {
			return fmt.Errorf("budget fact ratio %.6g does not match evidence %.6g",
				f.Value, budgetRatio(wps, minw))
		}
	case FactGroupBudget:
		if l.Group == "" {
			return fmt.Errorf("group-budget fact on ungrouped loop")
		}
	case FactRank:
		share := l.RankShare
		if pt != nil {
			share *= clampFrac(pt.WorkFrac)
		}
		if !close64(f.Value, share) {
			return fmt.Errorf("rank fact share %.6g does not match evidence %.6g", f.Value, share)
		}
	case FactCold:
		share := l.RankShare
		if pt != nil {
			share *= clampFrac(pt.WorkFrac)
		}
		if !close64(f.Value, share) || share >= minRankShare {
			return fmt.Errorf("cold fact share %.6g vs evidence %.6g (threshold %.6g)",
				f.Value, share, minRankShare)
		}
	case FactPart:
		if pt == nil {
			return fmt.Errorf("part fact without a part")
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
