package pipeline

import (
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

// FromTrace builds planner evidence straight from a trace: analyze the
// events, then join the per-loop report with the declared structure.
// Equivalent to FromAnalysis(analyze.Analyze(events), structs, source).
func FromTrace(events []obs.Event, structs []LoopStructure, source string) Evidence {
	return FromAnalysis(analyze.Analyze(events), structs, source)
}

// FromAnalysis turns an analyze report into planner evidence:
//
//   - only declared loops enter: a traced loop without a matching
//     structure is dropped before anything is normalized;
//   - RankShare comes from the report's Ranked profile
//     (entries matching declared loop names; WallNs fallback when the
//     ranking carries none of them);
//   - the Table 1 budget verdict is taken from the report, except for
//     region-only loops — regions that partition work via ctx.Range
//     emit no chunk spans, so the analyzer sees WorkNs = 0 and fails
//     them vacuously. For those, work is re-estimated as span ×
//     workers (every worker busy for the region's span, the right
//     model for a statically partitioned region) and the verdict
//     recomputed by the analyzer's rule, Table 1 at break-even with
//     model.RegionNs;
//   - the merge group joins in from the declaration.
func FromAnalysis(rep *analyze.Report, structs []LoopStructure, source string) Evidence {
	group := make(map[string]string, len(structs)) // declared loop → merge group
	for _, st := range structs {
		group[st.Name] = st.Group
	}
	var loops []*analyze.Loop
	planned := make(map[string]bool, len(structs))
	for i := range rep.Loops {
		if _, ok := group[rep.Loops[i].Name]; ok {
			loops = append(loops, &rep.Loops[i])
			planned[rep.Loops[i].Name] = true
		}
	}

	// Rank shares: profiled time per loop, normalized. The ranking
	// carries sub-entries too ("label/barrier", "label/chunk") and
	// undeclared loops; only entries naming a planned loop count.
	totals := make(map[string]float64, len(loops))
	sum := 0.0
	for _, e := range rep.Ranked {
		if planned[e.Name] {
			totals[e.Name] += float64(e.Total)
			sum += float64(e.Total)
		}
	}
	if sum == 0 {
		for _, l := range loops {
			totals[l.Name] = float64(l.WallNs)
			sum += float64(l.WallNs)
		}
	}

	ev := Evidence{Source: source}
	for _, l := range loops {
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
			Group:             group[l.Name],
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
			le.WorkNs = l.SpanNs * int64(procs)
			le.WorkPerSyncCycles = float64(le.WorkNs) / float64(l.SyncEvents)
			le.MinWorkCycles = model.MinWorkPerLoop(procs, model.RegionNs, 1)
			le.BudgetPass = le.WorkPerSyncCycles >= le.MinWorkCycles
		}
		ev.Loops = append(ev.Loops, le)
	}
	ev.Loops = sortLoops(ev.Loops)
	return ev
}
