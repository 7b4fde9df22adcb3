package pipeline

import "fmt"

const (
	// minRankShare is the cold-loop threshold: a dependence-clean,
	// budget-passing loop whose share of profiled time is below it is
	// still left serial — the paper parallelizes hottest-first and
	// stops where a loop cannot matter (§4).
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

// bodyClass is the planner's dependence classification of one loop.
type bodyClass int

const (
	// classClean: no observed or proven dependence obstruction, and
	// dependence evidence exists (static certificate or clean tracked
	// run) — eligible for parallel execution.
	classClean bodyClass = iota
	// classConflict: the Tracker observed loop-level conflicts.
	classConflict
	// classStaticSerial: statically proven loop-carried dependence.
	classStaticSerial
	// classMixed: the obstructions localize to declared parts —
	// fission candidate.
	classMixed
	// classNoEvidence: verdict unknown and no tracked run.
	classNoEvidence
)

func classify(l *LoopEvidence) bodyClass {
	if len(l.Conflicts) > 0 {
		return classConflict
	}
	if l.Static == StaticSerial {
		return classStaticSerial
	}
	for i := range l.Parts {
		if len(l.Parts[i].Conflicts) > 0 || l.Parts[i].Static == StaticSerial {
			return classMixed
		}
	}
	if l.Static != StaticParallel && !l.Tracked {
		return classNoEvidence
	}
	return classClean
}

// partParallelizable reports whether a part carries enough dependence
// evidence to run as its own region: its own certificate, the whole
// loop's certificate, or a clean tracked run of the loop.
func partParallelizable(l *LoopEvidence, p *PartEvidence) bool {
	if len(p.Conflicts) > 0 || p.Static == StaticSerial {
		return false
	}
	return p.Static == StaticParallel || l.Static == StaticParallel || l.Tracked
}

func clampFrac(f float64) float64 {
	if f < 0 || f != f { // negative or NaN
		return 0
	}
	return f
}

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
	wps, minw, share float64
}

// PlanFromEvidence is the planner: it reproduces, from measured
// evidence, the per-loop judgment the paper made by hand — serial on
// any dependence obstruction, fission when the obstruction localizes
// to a part of a mixed body, merge when adjacent cheap regions only
// clear the Table 1 budget together, parallelize when the loop is
// clean, hot and amortizes its synchronization. Decisions are emitted
// hottest loop first; every decision carries the facts it rests on,
// and Validate(plan, evidence) machine-checks them.
func PlanFromEvidence(ev Evidence) *Plan {
	loops := sortLoops(ev.Loops)

	class := make(map[string]bodyClass, len(loops))
	for i := range loops {
		class[loops[i].Name] = classify(&loops[i])
	}

	// Merge pass: a group of >= 2 clean adjacent regions fuses when at
	// least one member fails its own budget but the fused region
	// clears it — and the group is collectively warm enough to matter.
	groups := map[string][]*LoopEvidence{}
	for i := range loops {
		l := &loops[i]
		if l.Group != "" && class[l.Name] == classClean {
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
			if m.MinWorkCycles > minw {
				minw = m.MinWorkCycles
			}
		}
		if !anyFail {
			continue // every member amortizes alone; no need to fuse
		}
		wps := mergedWorkPerSync(members)
		if wps >= minw && share >= minRankShare {
			merges[g] = mergeInfo{wps: wps, minw: minw, share: share}
		}
	}

	p := &Plan{Schema: Schema, Source: ev.Source, Procs: ev.Procs}
	for i := range loops {
		p.Loops = append(p.Loops, decide(&loops[i], class[loops[i].Name], merges))
	}
	return p
}

func decide(l *LoopEvidence, c bodyClass, merges map[string]mergeInfo) LoopPlan {
	lp := LoopPlan{Loop: l.Name}
	switch c {
	case classConflict:
		lp.Action = Serial
		lp.Rationale = append(lp.Rationale, conflictFact(l.Name, "", l.Conflicts))
		if l.Static == StaticSerial {
			lp.Rationale = append(lp.Rationale, staticFact(l.Name, "", l.Static))
		}
		return lp
	case classStaticSerial:
		lp.Action = Serial
		lp.Rationale = append(lp.Rationale, staticFact(l.Name, "", l.Static))
		return lp
	case classMixed:
		return decideFission(l)
	case classNoEvidence:
		lp.Action = Serial
		lp.Rationale = append(lp.Rationale, Fact{
			Kind: FactNoEvidence, Loop: l.Name,
			Detail: "static verdict unknown and no dependence-instrumented run; conservative default",
		})
		return lp
	}

	// Clean body: dependence facts first, then the cost decision.
	dep := dependenceFacts(l)
	if mi, ok := merges[l.Group]; ok {
		lp.Action = Merge
		lp.Group = l.Group
		lp.Rationale = append(dep,
			Fact{Kind: FactBudget, Loop: l.Name, Value: budgetRatio(l.WorkPerSyncCycles, l.MinWorkCycles),
				Detail: budgetDetail(l.BudgetPass, l.WorkPerSyncCycles, l.MinWorkCycles)},
			Fact{Kind: FactGroupBudget, Loop: l.Name, Value: budgetRatio(mi.wps, mi.minw),
				Detail: fmt.Sprintf("group %q fused: %.0f cycles/sync vs %.0f minimum", l.Group, mi.wps, mi.minw)},
		)
		return lp
	}
	if !l.BudgetPass {
		lp.Action = Serial
		lp.Rationale = append(dep, Fact{
			Kind: FactBudget, Loop: l.Name, Value: budgetRatio(l.WorkPerSyncCycles, l.MinWorkCycles),
			Detail: budgetDetail(false, l.WorkPerSyncCycles, l.MinWorkCycles),
		})
		if l.RankShare < minRankShare {
			lp.Rationale = append(lp.Rationale, coldFact(l.Name, "", l.RankShare))
		}
		return lp
	}
	if l.RankShare < minRankShare {
		lp.Action = Serial
		lp.Rationale = append(dep, coldFact(l.Name, "", l.RankShare))
		return lp
	}
	lp.Action = Parallelize
	lp.Rationale = append(dep,
		Fact{Kind: FactBudget, Loop: l.Name, Value: budgetRatio(l.WorkPerSyncCycles, l.MinWorkCycles),
			Detail: budgetDetail(true, l.WorkPerSyncCycles, l.MinWorkCycles)},
		Fact{Kind: FactRank, Loop: l.Name, Value: l.RankShare,
			Detail: fmt.Sprintf("%.1f%% of profiled time", 100*l.RankShare)},
	)
	return lp
}

// decideFission handles a mixed body: obstructions localized to parts.
// Parts that are parallelizable, amortized and warm go parallel; the
// rest stay serial. With no part worth isolating, the whole loop stays
// serial.
func decideFission(l *LoopEvidence) LoopPlan {
	lp := LoopPlan{Loop: l.Name}
	var par, ser []string
	var facts []Fact
	for i := range l.Parts {
		pt := &l.Parts[i]
		frac := clampFrac(pt.WorkFrac)
		wps := l.WorkPerSyncCycles * frac
		share := l.RankShare * frac
		switch {
		case len(pt.Conflicts) > 0:
			ser = append(ser, pt.Name)
			facts = append(facts, conflictFact(l.Name, pt.Name, pt.Conflicts))
		case pt.Static == StaticSerial:
			ser = append(ser, pt.Name)
			facts = append(facts, staticFact(l.Name, pt.Name, pt.Static))
		case !partParallelizable(l, pt):
			ser = append(ser, pt.Name)
			facts = append(facts, Fact{Kind: FactNoEvidence, Loop: l.Name, Part: pt.Name,
				Detail: "no dependence evidence for this part; conservative default"})
		case wps < l.MinWorkCycles:
			ser = append(ser, pt.Name)
			facts = append(facts, Fact{Kind: FactBudget, Loop: l.Name, Part: pt.Name,
				Value:  budgetRatio(wps, l.MinWorkCycles),
				Detail: budgetDetail(false, wps, l.MinWorkCycles)})
		case share < minRankShare:
			ser = append(ser, pt.Name)
			facts = append(facts, coldFact(l.Name, pt.Name, share))
		default:
			par = append(par, pt.Name)
			facts = append(facts, Fact{Kind: FactBudget, Loop: l.Name, Part: pt.Name,
				Value:  budgetRatio(wps, l.MinWorkCycles),
				Detail: budgetDetail(true, wps, l.MinWorkCycles)})
		}
	}
	if len(par) == 0 {
		lp.Action = Serial
		lp.Rationale = facts
		return lp
	}
	lp.Action = Fission
	lp.ParallelParts, lp.SerialParts = par, ser
	lp.Rationale = facts
	return lp
}

func dependenceFacts(l *LoopEvidence) []Fact {
	var out []Fact
	if l.Static == StaticParallel {
		out = append(out, staticFact(l.Name, "", l.Static))
	}
	if l.Tracked && len(l.Conflicts) == 0 {
		out = append(out, Fact{Kind: FactTrackerClean, Loop: l.Name,
			Detail: "dependence-instrumented run observed no loop-carried conflict"})
	}
	return out
}

func conflictFact(loop, part string, cs []Conflict) Fact {
	detail := fmt.Sprintf("%d loop-carried conflict(s) observed", len(cs))
	if len(cs) > 0 {
		detail += fmt.Sprintf(", e.g. %s on %s[%d]", cs[0].Kind, cs[0].Array, cs[0].Index)
	}
	return Fact{Kind: FactConflict, Loop: loop, Part: part, Detail: detail, Value: float64(len(cs))}
}

func staticFact(loop, part string, v StaticVerdict) Fact {
	detail := "statically proven iteration-independent"
	if v == StaticSerial {
		detail = "statically proven loop-carried dependence"
	}
	return Fact{Kind: FactStatic, Loop: loop, Part: part, Detail: detail}
}

func coldFact(loop, part string, share float64) Fact {
	return Fact{Kind: FactCold, Loop: loop, Part: part, Value: share,
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
