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
	structs := []LoopStructure{{Name: "hot", Group: "g"}, {Name: "regiononly"}}
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
	if hot == nil || hot.Group != "g" {
		t.Fatalf("hot loop missing or unjoined: %+v", hot)
	}
	if hot.RankShare <= 0 || hot.RankShare > 1 {
		t.Errorf("hot rank share = %v", hot.RankShare)
	}
	if hot.SyncEvents == 0 || hot.WorkNs == 0 {
		t.Errorf("hot loop evidence empty: %+v", hot)
	}

	ro := ev.Loop("regiononly")
	if ro == nil || ro.Group != "" {
		t.Fatalf("regiononly must be declared and ungrouped: %+v", ro)
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

	// The declarations are the allow-list: an undeclared loop is
	// dropped before the shares are normalized.
	only := FromTrace(events, analyze.Config{}, structs[:1], "live-test")
	if len(only.Loops) != 1 || only.Loops[0].Name != "hot" || only.Loops[0].RankShare != 1 {
		t.Errorf("undeclared loop kept or shares not renormalized: %+v", only.Loops)
	}
}

func planEvNames(ev Evidence) []string {
	var out []string
	for _, l := range ev.Loops {
		out = append(out, l.Name)
	}
	return out
}

// End-to-end over a live trace: the plan covers exactly the declared
// loops, and the whole plan validates against its own evidence.
func TestPlanFromLiveTrace(t *testing.T) {
	events := traceTwoLoops(t)
	for _, structs := range [][]LoopStructure{
		{{Name: "hot"}},
		{{Name: "hot"}, {Name: "regiononly"}},
	} {
		ev := FromTrace(events, analyze.Config{}, structs, "live")
		p := PlanFromEvidence(ev)
		mustValidate(t, p, ev)
		if len(p.Loops) != len(structs) {
			t.Fatalf("plan %v, want one decision per declared loop %v", planNames(p), structs)
		}
		for _, st := range structs {
			if _, ok := p.Decision(st.Name); !ok {
				t.Errorf("declared loop %q not planned: %v", st.Name, planNames(p))
			}
		}
	}
}
