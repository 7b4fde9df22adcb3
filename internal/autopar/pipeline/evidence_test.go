package pipeline

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/parloop"
)

// spin burns deterministic-ish CPU so traced spans are nonzero.
func spin(n int) float64 {
	s := 0.0
	for i := 0; i < n; i++ {
		s += float64(i%7) * 1e-9
	}
	return s
}

// traceTwoLoops runs a chunked hot loop and a cheaper region-only loop
// (ctx.Range partitioning, so the analyzer sees no chunk spans) on a
// real traced team, and returns the trace.
func traceTwoLoops(t *testing.T) []obs.Event {
	t.Helper()
	tr := obs.NewTracer(1<<14, nil)
	tr.Enable()
	team := parloop.NewTeam(4)
	defer team.Close()
	team.SetTracer(tr, "hot")
	for step := 0; step < 3; step++ {
		team.For(64, func(i int) { spin(20_000) })
	}
	team.SetLabel("regiononly")
	for step := 0; step < 3; step++ {
		team.Region(func(ctx *parloop.WorkerCtx) {
			lo, hi := ctx.Range(64)
			for i := lo; i < hi; i++ {
				spin(5_000)
			}
		})
	}
	return tr.Events()
}

func TestFromTraceBuildsEvidence(t *testing.T) {
	events := traceTwoLoops(t)
	structs := []LoopStructure{
		{Name: "hot", Static: StaticParallel},
		// regiononly left undeclared: must default to unknown.
	}
	ev := FromTrace(events, analyze.Config{}, structs, "live-test")
	if ev.Source != "live-test" {
		t.Errorf("source = %q", ev.Source)
	}
	if ev.Procs != 4 {
		t.Errorf("procs = %d, want 4", ev.Procs)
	}
	if len(ev.Loops) != 2 {
		t.Fatalf("loops = %v, want hot + regiononly", planEvNames(ev))
	}

	hot := ev.Loop("hot")
	if hot == nil || hot.Static != StaticParallel {
		t.Fatalf("hot loop missing or unjoined: %+v", hot)
	}
	if hot.RankShare <= 0 || hot.RankShare > 1 {
		t.Errorf("hot rank share = %v", hot.RankShare)
	}
	if hot.SyncEvents == 0 || hot.WorkNs == 0 {
		t.Errorf("hot loop evidence empty: %+v", hot)
	}

	ro := ev.Loop("regiononly")
	if ro == nil || ro.Static != StaticUnknown || ro.Group != "" {
		t.Fatalf("undeclared loop must default to unknown/ungrouped: %+v", ro)
	}
	// The analyzer sees WorkNs=0 for ctx.Range regions; the evidence
	// builder must re-estimate work from span × workers so the budget
	// verdict is not vacuously false.
	if ro.WorkNs == 0 || ro.WorkPerSyncCycles == 0 || ro.MinWorkCycles == 0 {
		t.Errorf("region-only loop work not estimated: %+v", ro)
	}

	// Shares normalize over the profiled loops.
	if s := hot.RankShare + ro.RankShare; s < 0.999 || s > 1.001 {
		t.Errorf("rank shares sum to %v, want 1", s)
	}
}

func planEvNames(ev Evidence) []string {
	var out []string
	for _, l := range ev.Loops {
		out = append(out, l.Name)
	}
	return out
}

func TestEvidenceMutators(t *testing.T) {
	l := cleanLoop("rhs", 0.8, 200_000)
	l.Static = StaticUnknown
	l.Parts = []PartEvidence{{Name: "jk", WorkFrac: 0.6, Static: StaticUnknown}}
	ev := Evidence{Loops: []LoopEvidence{l, cleanLoop("other", 0.2, 100_000)}}

	if ev.AddConflicts("ghost", "", oneConflict()) {
		t.Error("AddConflicts accepted an unknown loop")
	}
	if ev.AddConflicts("rhs", "ghostpart", oneConflict()) {
		t.Error("AddConflicts accepted an unknown part")
	}
	if !ev.AddConflicts("rhs", "jk", oneConflict()) {
		t.Fatal("AddConflicts rejected a declared part")
	}
	if !ev.AddConflicts("rhs", "", oneConflict()) {
		t.Fatal("AddConflicts rejected the loop")
	}
	rhs := ev.Loop("rhs")
	if !rhs.Tracked || len(rhs.Conflicts) != 1 || len(rhs.Parts[0].Conflicts) != 1 {
		t.Errorf("conflicts not attached: %+v", rhs)
	}
	ev.MarkTracked("other", "ghost")
	if !ev.Loop("other").Tracked {
		t.Error("MarkTracked missed a loop")
	}
}

// End-to-end over a live trace: the planner must parallelize the hot
// statically-certified loop and leave the unknown region-only loop
// serial for lack of dependence evidence — and the whole plan must
// validate against its own evidence.
func TestPlanFromLiveTrace(t *testing.T) {
	events := traceTwoLoops(t)
	structs := []LoopStructure{{Name: "hot", Static: StaticParallel}}
	ev := FromTrace(events, analyze.Config{}, structs, "live")
	p := PlanFromEvidence(ev)
	mustValidate(t, p, ev)
	if d, _ := p.Decision("regiononly"); d.Action != Serial || !hasKind(d.Rationale, FactNoEvidence) {
		t.Errorf("unknown loop: %+v, want serial/no-evidence", d)
	}
	// Promote via a clean tracked run and re-plan: now both can go
	// parallel (budget permitting).
	ev.MarkTracked("regiononly")
	p2 := PlanFromEvidence(ev)
	mustValidate(t, p2, ev)
	if d, _ := p2.Decision("regiononly"); d.Action == Serial && hasKind(d.Rationale, FactNoEvidence) {
		t.Errorf("tracked-clean loop still demoted for lack of evidence: %+v", d)
	}
}
