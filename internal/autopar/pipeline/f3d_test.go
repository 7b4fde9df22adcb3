package pipeline

import (
	"testing"

	"repro/internal/f3d"
)

func TestF3DStructurePrefixing(t *testing.T) {
	for _, st := range F3DStructure("jobA") {
		if st.Name != "jobA/step" && st.Group != "step" {
			t.Errorf("phase loop %q not in the step merge group", st.Name)
		}
	}
	// Unprefixed names pass through.
	var names []string
	for _, st := range F3DStructure("") {
		names = append(names, st.Name)
	}
	want := map[string]bool{"bc": true, "rhs": true, "sweep-jk": true, "sweep-l": true, "step": true}
	for _, n := range names {
		if !want[n] {
			t.Errorf("unexpected structure loop %q", n)
		}
	}
	if len(names) != len(want) {
		t.Errorf("structures = %v", names)
	}
}

// plan entry shorthand for lowering tests.
func pe(loop string, a Action) LoopPlan { return LoopPlan{Loop: loop, Action: a} }

func TestShapeFromPlanLowering(t *testing.T) {
	cases := []struct {
		name string
		plan *Plan
		want f3d.StepShape
	}{
		{"all-parallel", &Plan{Loops: []LoopPlan{
			pe("j/rhs", Parallelize), pe("j/sweep-jk", Parallelize),
			pe("j/sweep-l", Parallelize), pe("j/bc", Parallelize),
		}}, f3d.StepShape{RHSJK: true, RHSL: true, SweepJK: true, SweepL: true, BC: true}},

		{"rhs-serial", &Plan{Loops: []LoopPlan{
			pe("j/rhs", Serial), pe("j/sweep-jk", Parallelize), pe("j/sweep-l", Parallelize),
		}}, f3d.StepShape{SweepJK: true, SweepL: true}},

		// A fissioned run's labels are not planned phases.
		{"fission-labels-ignored", &Plan{Loops: []LoopPlan{
			pe("j/rhs-jk", Parallelize), pe("j/rhs-l", Parallelize), pe("j/sweep-l", Parallelize),
		}}, f3d.StepShape{SweepL: true}},

		{"merged-group", &Plan{Loops: []LoopPlan{
			{Loop: "j/rhs", Action: Merge, Group: "step"},
			{Loop: "j/sweep-jk", Action: Merge, Group: "step"},
			{Loop: "j/sweep-l", Action: Merge, Group: "step"},
			{Loop: "j/bc", Action: Merge, Group: "step"},
		}}, f3d.StepShape{RHSJK: true, RHSL: true, SweepJK: true, SweepL: true, BC: true, Merged: true}},

		{"merged-run-replan", &Plan{Loops: []LoopPlan{pe("j/step", Parallelize)}},
			f3d.StepShape{RHSJK: true, RHSL: true, SweepJK: true, SweepL: true, Merged: true}},

		{"merged-run-demoted", &Plan{Loops: []LoopPlan{pe("j/step", Serial)}}, f3d.StepShape{}},

		{"foreign-loops-ignored", &Plan{Loops: []LoopPlan{
			pe("other/rhs", Parallelize), pe("j/sweep-jk", Parallelize),
		}}, f3d.StepShape{SweepJK: true}},
	}
	for _, tc := range cases {
		if got := ShapeFromPlan(tc.plan, "j"); got != tc.want {
			t.Errorf("%s: shape = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// The round trip behind the applied-plan story: evidence shaped like a
// real phase-traced f3d run plans parallel phases, and the lowered
// shape matches what the evidence supports.
func TestF3DPlanRoundTrip(t *testing.T) {
	structs := F3DStructure("job")
	mk := func(name string, share, wps float64) LoopEvidence {
		l := cleanLoop("job/"+name, share, wps)
		for _, st := range structs {
			if st.Name == l.Name {
				l.Group = st.Group
			}
		}
		return l
	}
	ev := Evidence{Procs: 4, Loops: []LoopEvidence{
		mk("rhs", 0.5, 300_000),
		mk("sweep-jk", 0.25, 150_000),
		mk("sweep-l", 0.2, 120_000),
		mk("bc", 0.05, 60_000),
	}}
	p := PlanFromEvidence(ev)
	mustValidate(t, p, ev)
	sh := ShapeFromPlan(p, "job")
	want := f3d.StepShape{RHSJK: true, RHSL: true, SweepJK: true, SweepL: true, BC: true}
	if sh != want {
		t.Fatalf("shape = %+v, want %+v (plan %+v)", sh, want, p.Loops)
	}
	// Demote bc below its budget: the group merge rescues it, and the
	// lowered shape hoists the step (Example 3).
	ev.Loop("job/bc").WorkPerSyncCycles = 20_000
	ev.Loop("job/bc").BudgetPass = false
	p2 := PlanFromEvidence(ev)
	mustValidate(t, p2, ev)
	sh2 := ShapeFromPlan(p2, "job")
	if !sh2.Merged || !sh2.BC || !sh2.RHSJK || !sh2.RHSL || !sh2.SweepJK || !sh2.SweepL {
		t.Fatalf("merged shape = %+v (plan %+v)", sh2, p2.Loops)
	}
}
