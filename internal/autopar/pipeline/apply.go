package pipeline

import "fmt"

// Applied projects evidence through a plan: the loop evidence a
// *stable* workload would produce after the plan's transforms are
// applied. Parallelize/Serial loops carry over unchanged; a merged
// group becomes a single fused loop named after the group. The
// property tests use it to prove the planner is a fixed point:
// re-planning from applied evidence proposes no changes (Changes
// returns nil).
func Applied(ev Evidence, p *Plan) Evidence {
	out := Evidence{Source: ev.Source, Procs: ev.Procs}
	merged := map[string]bool{}
	for _, l := range sortLoops(ev.Loops) {
		d, ok := p.Decision(l.Name)
		if !ok || d.Action != Merge {
			out.Loops = append(out.Loops, l)
			continue
		}
		if !merged[d.Group] {
			merged[d.Group] = true
			out.Loops = append(out.Loops, mergedLoop(ev, p, d.Group))
		}
	}
	return out
}

// mergedLoop is the fused region's evidence: summed ranking and work,
// and the combined work-per-sync the merge decision was based on.
func mergedLoop(ev Evidence, p *Plan, group string) LoopEvidence {
	var members []*LoopEvidence
	for i := range ev.Loops {
		m := &ev.Loops[i]
		if d, ok := p.Decision(m.Name); ok && d.Action == Merge && d.Group == group {
			members = append(members, m)
		}
	}
	nl := LoopEvidence{Name: group}
	for _, m := range members {
		nl.RankShare += m.RankShare
		nl.WorkNs += m.WorkNs
		nl.SyncEvents += m.SyncEvents
		nl.Workers = max(nl.Workers, m.Workers)
		nl.MinWorkCycles = max(nl.MinWorkCycles, m.MinWorkCycles)
	}
	nl.WorkPerSyncCycles = mergedWorkPerSync(members)
	nl.BudgetPass = nl.WorkPerSyncCycles >= nl.MinWorkCycles
	return nl
}

// Changes diffs a plan against the re-plan of its own applied
// evidence, reporting every decision the new plan would revise. An
// empty result means prev is a fixed point for that evidence: the
// pipeline has converged and a rerun would keep the same structure.
// Loops absent from the next plan (e.g. a serial loop that left no
// trace in the rerun) are not counted as changes.
func Changes(prev, next *Plan) []string {
	var out []string
	note := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	for _, d := range prev.Loops {
		switch d.Action {
		case Parallelize, Serial:
			if nd, ok := next.Decision(d.Loop); ok && nd.Action != d.Action {
				note("loop %q: %s -> %s", d.Loop, d.Action, nd.Action)
			}
		case Merge:
			// The fused region shows up under the group's name and must
			// stay parallel (or merge further).
			if nd, ok := next.Decision(d.Group); ok && nd.Action != Parallelize && nd.Action != Merge {
				note("merged group %q: -> %s", d.Group, nd.Action)
			}
		}
	}
	return out
}
