package pipeline

import "fmt"

// Applied projects evidence through a plan: the loop evidence a
// *stable* workload would produce after the plan's transforms are
// applied. Parallelize/Serial loops carry over unchanged; a fissioned
// loop becomes one loop per part ("<loop>-<part>", metrics scaled by
// the part's work fraction); a merged group becomes a single fused
// loop named after the group. The property tests use it to prove the
// planner is a fixed point: re-planning from applied evidence proposes
// no changes (Changes returns nil).
func Applied(ev Evidence, p *Plan) Evidence {
	out := Evidence{Source: ev.Source, Procs: ev.Procs, SyncCostCycles: ev.SyncCostCycles}
	merged := map[string]bool{}
	for _, l := range sortLoops(ev.Loops) {
		d, ok := p.Decision(l.Name)
		if !ok {
			out.Loops = append(out.Loops, l)
			continue
		}
		switch d.Action {
		case Fission:
			for i := range l.Parts {
				out.Loops = append(out.Loops, fissionedLoop(&l, &l.Parts[i]))
			}
		case Merge:
			if merged[d.Group] {
				continue
			}
			merged[d.Group] = true
			out.Loops = append(out.Loops, mergedLoop(ev, p, d.Group))
		default:
			out.Loops = append(out.Loops, l)
		}
	}
	return out
}

// fissionedLoop is the evidence a part produces once isolated into its
// own region: scaled ranking and work, the part's own dependence
// verdict (inheriting the loop-level certificate when the part has
// none), and a recomputed budget verdict.
func fissionedLoop(l *LoopEvidence, pt *PartEvidence) LoopEvidence {
	frac := clampFrac(pt.WorkFrac)
	nl := LoopEvidence{
		Name:              l.Name + "-" + pt.Name,
		RankShare:         l.RankShare * frac,
		WorkNs:            int64(float64(l.WorkNs) * frac),
		Workers:           l.Workers,
		SyncEvents:        l.SyncEvents,
		WorkPerSyncCycles: l.WorkPerSyncCycles * frac,
		MinWorkCycles:     l.MinWorkCycles,
		Static:            pt.Static,
		Tracked:           l.Tracked,
		Conflicts:         pt.Conflicts,
	}
	if nl.Static == "" {
		nl.Static = StaticUnknown
	}
	if nl.Static == StaticUnknown && l.Static == StaticParallel {
		nl.Static = StaticParallel
	}
	nl.BudgetPass = nl.WorkPerSyncCycles >= nl.MinWorkCycles
	return nl
}

// mergedLoop is the fused region's evidence: summed ranking and work,
// the combined work-per-sync the merge decision was based on, and a
// clean dependence record (every member was clean, or the merge was
// illegal).
func mergedLoop(ev Evidence, p *Plan, group string) LoopEvidence {
	var members []*LoopEvidence
	for i := range ev.Loops {
		m := &ev.Loops[i]
		if d, ok := p.Decision(m.Name); ok && d.Action == Merge && d.Group == group {
			members = append(members, m)
		}
	}
	nl := LoopEvidence{Name: group, Static: StaticParallel}
	for _, m := range members {
		nl.RankShare += m.RankShare
		nl.WorkNs += m.WorkNs
		nl.SyncEvents += m.SyncEvents
		if m.Workers > nl.Workers {
			nl.Workers = m.Workers
		}
		if m.MinWorkCycles > nl.MinWorkCycles {
			nl.MinWorkCycles = m.MinWorkCycles
		}
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
		case Fission:
			for _, part := range d.ParallelParts {
				name := d.Loop + "-" + part
				if nd, ok := next.Decision(name); ok && nd.Action != Parallelize {
					note("fissioned part %q: parallel -> %s", name, nd.Action)
				}
			}
			for _, part := range d.SerialParts {
				name := d.Loop + "-" + part
				if nd, ok := next.Decision(name); ok && nd.Action != Serial {
					note("fissioned part %q: serial -> %s", name, nd.Action)
				}
			}
		}
	}
	return out
}
