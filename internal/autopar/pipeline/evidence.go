package pipeline

import (
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

// FromTrace builds planner evidence straight from a trace: analyze the
// events, then join the per-loop report with the declared static
// structure. Equivalent to FromAnalysis(analyze.Analyze(events, acfg),
// structs, source).
func FromTrace(events []obs.Event, acfg analyze.Config, structs []LoopStructure, source string) Evidence {
	return FromAnalysis(analyze.Analyze(events, acfg), structs, source)
}

// FromAnalysis turns an analyze report into planner evidence:
//
//   - RankShare comes from the report's Ranked profile
//     (entries matching traced loop names; WallNs fallback when the
//     ranking carries none of them);
//   - the Table 1 budget verdict is taken from the report, except for
//     region-only loops — regions that partition work via ctx.Range
//     emit no chunk spans, so the analyzer sees WorkNs = 0 and fails
//     them vacuously. For those, work is re-estimated as span ×
//     workers (every worker busy for the region's span, the right
//     model for a statically partitioned region) and the verdict
//     recomputed against model.MinWorkPerLoop;
//   - the static verdict, merge group and mixed-body parts join in
//     from the declared structures; loops traced without a declaration
//     get StaticUnknown and no group — the conservative default.
//
// Dependence-run evidence (Tracker conflicts) is attached afterwards
// with AddConflicts/MarkTracked — tracing and tracking are separate
// instrumented runs.
func FromAnalysis(rep *analyze.Report, structs []LoopStructure, source string) Evidence {
	cfg := rep.Config.Defaults()
	byName := make(map[string]*LoopStructure, len(structs))
	for i := range structs {
		byName[structs[i].Name] = &structs[i]
	}

	// Rank shares: profiled time per loop, normalized. The ranking
	// carries sub-entries too ("label/barrier", "label/chunk"); only
	// entries naming a traced loop count.
	loopNames := make(map[string]bool, len(rep.Loops))
	for i := range rep.Loops {
		loopNames[rep.Loops[i].Name] = true
	}
	totals := make(map[string]float64, len(rep.Loops))
	sum := 0.0
	for _, e := range rep.Ranked {
		if loopNames[e.Name] {
			totals[e.Name] += float64(e.Total)
			sum += float64(e.Total)
		}
	}
	if sum == 0 {
		for i := range rep.Loops {
			l := &rep.Loops[i]
			totals[l.Name] = float64(l.WallNs)
			sum += float64(l.WallNs)
		}
	}

	ev := Evidence{Source: source, SyncCostCycles: cfg.SyncCostCycles}
	for i := range rep.Loops {
		l := &rep.Loops[i]
		le := LoopEvidence{
			Name:              l.Name,
			WorkNs:            l.WorkNs,
			Workers:           l.Workers,
			SyncEvents:        l.SyncEvents,
			WorkPerSyncCycles: l.Budget.WorkPerSyncCycles,
			MinWorkCycles:     l.Budget.MinWorkCycles,
			BudgetPass:        l.Budget.Pass,
			ImbalanceFrac:     l.Attribution.ImbalanceFrac,
			BarrierFrac:       l.Attribution.BarrierFrac,
			Static:            StaticUnknown,
		}
		if sum > 0 {
			le.RankShare = totals[l.Name] / sum
		}
		if l.Workers > ev.Procs {
			ev.Procs = l.Workers
		}
		if l.WorkNs == 0 && l.SpanNs > 0 && l.SyncEvents > 0 {
			procs := l.Workers
			if procs < 1 {
				procs = 1
			}
			est := float64(l.SpanNs) * float64(procs) * cfg.ClockGHz
			le.WorkNs = int64(float64(l.SpanNs) * float64(procs))
			le.WorkPerSyncCycles = est / float64(l.SyncEvents)
			le.MinWorkCycles = model.MinWorkPerLoop(procs, cfg.SyncCostCycles, cfg.Budget)
			le.BudgetPass = le.WorkPerSyncCycles >= le.MinWorkCycles
		}
		if st := byName[l.Name]; st != nil {
			if st.Static != "" {
				le.Static = st.Static
			}
			le.Group = st.Group
			for _, pt := range st.Parts {
				le.Parts = append(le.Parts, PartEvidence{
					Name:     pt.Name,
					WorkFrac: pt.WorkFrac,
					Static:   partStatic(pt.Static),
				})
			}
		}
		ev.Loops = append(ev.Loops, le)
	}
	ev.Loops = sortLoops(ev.Loops)
	return ev
}

func partStatic(v StaticVerdict) StaticVerdict {
	if v == "" {
		return StaticUnknown
	}
	return v
}

// AddConflicts attaches observed dependence conflicts to a loop (or,
// with part != "", to one of its declared parts) and marks the loop
// tracked. Returns false when the loop (or part) is not in the
// evidence.
func (ev *Evidence) AddConflicts(loop, part string, cs []Conflict) bool {
	l := ev.Loop(loop)
	if l == nil {
		return false
	}
	l.Tracked = true
	if part == "" {
		l.Conflicts = append(l.Conflicts, cs...)
		return true
	}
	for i := range l.Parts {
		if l.Parts[i].Name == part {
			l.Parts[i].Conflicts = append(l.Parts[i].Conflicts, cs...)
			return true
		}
	}
	return false
}

// MarkTracked records that the named loops ran under dependence
// instrumentation (a clean tracked run, when no conflicts are added):
// the evidence that promotes a statically-unknown loop.
func (ev *Evidence) MarkTracked(loops ...string) {
	for _, name := range loops {
		if l := ev.Loop(name); l != nil {
			l.Tracked = true
		}
	}
}
