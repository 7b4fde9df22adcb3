// Property tests that close the loop against the real dependence
// checker: these live in an external test package because
// internal/check imports pipeline (for the plan-conformance cells and
// PlanConflicts), so the reverse import must happen outside the
// pipeline package proper.
package pipeline_test

import (
	"strings"
	"testing"

	"repro/internal/autopar/pipeline"
	"repro/internal/check"
	"repro/internal/parloop"
)

// doacrossEvidence runs the seeded a[i] = a[i-1]+1 recurrence — the
// paper's §2 C$doacross misuse — under the real Tracker and builds
// planner evidence from the observed races: a hot, budget-passing,
// statically-unknown loop whose only blemish is the dependence the
// tracked run caught.
func doacrossEvidence(t *testing.T, workers int) pipeline.Evidence {
	t.Helper()
	k := check.SeededDependence()
	team := parloop.NewTeam(workers)
	defer team.Close()
	tk := check.NewTracker(team, 0)
	k.Tracked(tk, team, k.N)
	races := tk.Races()
	if len(races) == 0 {
		t.Fatalf("tracker missed the seeded doacross dependence (workers=%d)", workers)
	}
	ev := pipeline.Evidence{
		Source: "doacross-run",
		Procs:  workers,
		Loops: []pipeline.LoopEvidence{{
			Name:              "doacross",
			RankShare:         0.95,
			WorkNs:            1_000_000,
			Workers:           workers,
			SyncEvents:        4,
			WorkPerSyncCycles: 250_000,
			MinWorkCycles:     50_000,
			BudgetPass:        true,
			Static:            pipeline.StaticUnknown,
		}},
	}
	ev.AddConflicts("doacross", "", check.PlanConflicts(races))
	return ev
}

// The headline dependence property: Tracker evidence demotes the
// doacross kernel to serial no matter how hot and well-budgeted it is,
// the rationale names the observed race, and no valid plan can
// parallelize it.
func TestDoacrossDemotedByTrackerEvidence(t *testing.T) {
	for _, workers := range []int{2, 4} {
		ev := doacrossEvidence(t, workers)
		p := pipeline.PlanFromEvidence(ev)
		if err := pipeline.Validate(p, ev); err != nil {
			t.Fatalf("workers=%d: plan invalid: %v", workers, err)
		}
		d, ok := p.Decision("doacross")
		if !ok || d.Action != pipeline.Serial {
			t.Fatalf("workers=%d: doacross planned %v, want serial", workers, d.Action)
		}
		found := false
		for _, f := range d.Rationale {
			if f.Kind == pipeline.FactConflict && strings.Contains(f.Detail, "seeded.a") {
				found = true
			}
		}
		if !found {
			t.Errorf("workers=%d: rationale does not name the observed race: %+v", workers, d.Rationale)
		}

		// Adversarial half: hand-build the illegal promotion and watch
		// Validate refuse it.
		bad := &pipeline.Plan{Schema: pipeline.Schema, Loops: []pipeline.LoopPlan{{
			Loop: "doacross", Action: pipeline.Parallelize,
			Rationale: []pipeline.Fact{{Kind: pipeline.FactTrackerClean, Loop: "doacross"}},
		}}}
		if err := pipeline.Validate(bad, ev); err == nil {
			t.Fatalf("workers=%d: validator accepted a parallelized tracker-flagged loop", workers)
		}
	}
}

// The fixed-point property on the doacross evidence: the serial
// demotion is stable under re-planning from applied evidence.
func TestDoacrossPlanIsFixedPoint(t *testing.T) {
	ev := doacrossEvidence(t, 4)
	p := pipeline.PlanFromEvidence(ev)
	next := pipeline.PlanFromEvidence(pipeline.Applied(ev, p))
	if ch := pipeline.Changes(p, next); len(ch) != 0 {
		t.Fatalf("doacross plan not a fixed point: %v", ch)
	}
}

// The general fixed-point property over a workload exercising every
// action: parallelize, serial (conflict, cold, budget), merge and
// fission in one evidence set. Re-planning from the applied evidence
// must propose no changes, and both plans must validate.
func TestPlanFixedPointAcrossAllActions(t *testing.T) {
	mk := func(name string, share, wps float64, mut func(*pipeline.LoopEvidence)) pipeline.LoopEvidence {
		l := pipeline.LoopEvidence{
			Name: name, RankShare: share, WorkNs: int64(share * 1e9),
			Workers: 4, SyncEvents: 10,
			WorkPerSyncCycles: wps, MinWorkCycles: 50_000, BudgetPass: wps >= 50_000,
			Static: pipeline.StaticParallel,
		}
		if mut != nil {
			mut(&l)
		}
		return l
	}
	ev := pipeline.Evidence{Source: "synthetic", Procs: 4, Loops: []pipeline.LoopEvidence{
		mk("hot", 0.3, 200_000, nil),
		mk("racy", 0.2, 200_000, func(l *pipeline.LoopEvidence) {
			l.Static = pipeline.StaticUnknown
			l.Tracked = true
			l.Conflicts = []pipeline.Conflict{{Array: "q", Index: 3, Kind: "write-write"}}
		}),
		mk("mixed", 0.25, 200_000, func(l *pipeline.LoopEvidence) {
			l.Parts = []pipeline.PartEvidence{
				{Name: "par", WorkFrac: 0.7, Static: pipeline.StaticParallel},
				{Name: "ser", WorkFrac: 0.3, Static: pipeline.StaticSerial},
			}
		}),
		mk("groupbig", 0.15, 120_000, func(l *pipeline.LoopEvidence) { l.Group = "fuse" }),
		mk("groupsmall", 0.08, 20_000, func(l *pipeline.LoopEvidence) { l.Group = "fuse" }),
		mk("cold", 0.002, 100_000, nil),
	}}
	p := pipeline.PlanFromEvidence(ev)
	if err := pipeline.Validate(p, ev); err != nil {
		t.Fatalf("plan invalid: %v", err)
	}
	// Every action is exercised.
	for a, want := range map[pipeline.Action]int{
		pipeline.Parallelize: 1, pipeline.Serial: 2, pipeline.Merge: 2, pipeline.Fission: 1,
	} {
		if got := p.Count(a); got != want {
			t.Errorf("%s count = %d, want %d (plan %+v)", a, got, want, p.Loops)
		}
	}
	applied := pipeline.Applied(ev, p)
	next := pipeline.PlanFromEvidence(applied)
	if err := pipeline.Validate(next, applied); err != nil {
		t.Fatalf("re-plan invalid: %v", err)
	}
	if ch := pipeline.Changes(p, next); len(ch) != 0 {
		t.Fatalf("plan not a fixed point on a stable workload: %v", ch)
	}
}
