package pipeline

import "fmt"

const (
	// minRankShare is the cold-loop threshold: a budget-passing loop
	// whose share of profiled time is below it is still left serial —
	// the paper parallelizes hottest-first and stops where a loop
	// cannot matter (§4).
	minRankShare = 0.005
	// barrierCostFrac is a mid-region barrier's cost relative to a
	// full fork-join, used in the merged-group budget: k fused
	// regions synchronize once per step plus k-1 barriers, so the
	// combined work per effective sync is
	// Σ work-per-sync / (1 + (k-1)·barrierCostFrac) — the Example 3
	// arithmetic that lets cheap phases ride along with expensive
	// ones.
	barrierCostFrac = 0.5
)

// budgetRatio is work-per-sync over the Table 1 minimum (>= 1 passes);
// 0 when the minimum is unknown.
func budgetRatio(wps, minw float64) float64 {
	if minw <= 0 {
		return 0
	}
	return wps / minw
}

// mergedWorkPerSync is the fused group's work per effective
// synchronization: k regions become one fork-join plus k-1 barriers.
func mergedWorkPerSync(members []*LoopEvidence) float64 {
	sum := 0.0
	for _, m := range members {
		sum += m.WorkPerSyncCycles
	}
	k := float64(len(members))
	return sum / (1 + (k-1)*barrierCostFrac)
}

// mergeInfo records a group the planner decided to fuse.
type mergeInfo struct {
	wps, minw float64
}

// PlanFromEvidence is the planner: it reproduces, from measured
// evidence, the per-loop judgment the paper made by hand — merge when
// adjacent cheap regions only clear the Table 1 budget together,
// parallelize when the loop is hot and amortizes its synchronization,
// serial otherwise. Decisions are emitted hottest loop first; every
// decision carries the facts it rests on, and Validate(plan, evidence)
// machine-checks them.
func PlanFromEvidence(ev Evidence) *Plan {
	loops := sortLoops(ev.Loops)

	// Merge pass: a group of >= 2 adjacent regions fuses when at least
	// one member fails its own budget but the fused region clears it —
	// and the group is collectively warm enough to matter.
	groups := map[string][]*LoopEvidence{}
	for i := range loops {
		if l := &loops[i]; l.Group != "" {
			groups[l.Group] = append(groups[l.Group], l)
		}
	}
	merges := map[string]mergeInfo{}
	for g, members := range groups {
		if len(members) < 2 {
			continue
		}
		anyFail, share, minw := false, 0.0, 0.0
		for _, m := range members {
			if !m.BudgetPass {
				anyFail = true
			}
			share += m.RankShare
			minw = max(minw, m.MinWorkCycles)
		}
		if !anyFail {
			continue // every member amortizes alone; no need to fuse
		}
		wps := mergedWorkPerSync(members)
		if wps >= minw && share >= minRankShare {
			merges[g] = mergeInfo{wps: wps, minw: minw}
		}
	}

	p := &Plan{Schema: Schema, Source: ev.Source, Procs: ev.Procs}
	for i := range loops {
		p.Loops = append(p.Loops, decide(&loops[i], merges))
	}
	return p
}

func decide(l *LoopEvidence, merges map[string]mergeInfo) LoopPlan {
	lp := LoopPlan{Loop: l.Name}
	budget := Fact{Kind: FactBudget, Loop: l.Name, Value: budgetRatio(l.WorkPerSyncCycles, l.MinWorkCycles),
		Detail: budgetDetail(l.BudgetPass, l.WorkPerSyncCycles, l.MinWorkCycles)}
	cold := l.RankShare < minRankShare
	switch mi, merged := merges[l.Group]; {
	case merged:
		lp.Action, lp.Group = Merge, l.Group
		lp.Rationale = []Fact{budget, {Kind: FactGroupBudget, Loop: l.Name, Value: budgetRatio(mi.wps, mi.minw),
			Detail: fmt.Sprintf("group %q fused: %.0f cycles/sync vs %.0f minimum", l.Group, mi.wps, mi.minw)}}
	case !l.BudgetPass:
		lp.Action, lp.Rationale = Serial, []Fact{budget}
		if cold {
			lp.Rationale = append(lp.Rationale, coldFact(l.Name, l.RankShare))
		}
	case cold:
		lp.Action, lp.Rationale = Serial, []Fact{coldFact(l.Name, l.RankShare)}
	default:
		lp.Action = Parallelize
		lp.Rationale = []Fact{budget, {Kind: FactRank, Loop: l.Name, Value: l.RankShare,
			Detail: fmt.Sprintf("%.1f%% of profiled time", 100*l.RankShare)}}
	}
	return lp
}

func coldFact(loop string, share float64) Fact {
	return Fact{Kind: FactCold, Loop: loop, Value: share,
		Detail: fmt.Sprintf("%.2f%% of profiled time, below the %.2f%% planning threshold",
			100*share, 100*minRankShare)}
}

func budgetDetail(pass bool, wps, minw float64) string {
	verdict := "fails"
	if pass {
		verdict = "clears"
	}
	return fmt.Sprintf("%s the Table 1 criterion: %.0f cycles/sync vs %.0f minimum", verdict, wps, minw)
}
