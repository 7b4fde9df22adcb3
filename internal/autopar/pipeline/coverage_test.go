package pipeline

import (
	"math/rand"
	"strings"
	"testing"
)

// TestPlannerPropertySweep is the deterministic twin of
// FuzzPlanFromEvidence: a seeded sweep over generated evidence so the
// planner's property envelope (validity, determinism, fixed point) is
// exercised on every plain `go test` run, not only under -fuzz.
func TestPlannerPropertySweep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		data := make([]byte, rng.Intn(64))
		rng.Read(data)
		ev := evidenceFromBytes(data)
		p := PlanFromEvidence(ev)
		if err := Validate(p, ev); err != nil {
			t.Fatalf("iter %d: invalid plan: %v\nevidence: %+v", iter, err, ev)
		}
		applied := Applied(ev, p)
		next := PlanFromEvidence(applied)
		if err := Validate(next, applied); err != nil {
			t.Fatalf("iter %d: invalid re-plan: %v", iter, err)
		}
		if ch := Changes(p, next); len(ch) != 0 {
			t.Fatalf("iter %d: not a fixed point: %v\nevidence: %+v", iter, ch, ev)
		}
	}
}

// Per-kind fact honesty checks not already covered by the planner
// paths: each dishonest fact must be rejected with a specific error.
func TestValidateFactObligations(t *testing.T) {
	ev := Evidence{Loops: []LoopEvidence{cleanLoop("x", 0.9, 200_000)}}
	serialWith := func(f Fact) *Plan {
		return handPlan(LoopPlan{Loop: "x", Action: Serial, Rationale: []Fact{f}})
	}
	wantInvalid(t, serialWith(Fact{Kind: FactGroupBudget, Loop: "x"}), ev, "ungrouped")
	wantInvalid(t, serialWith(Fact{Kind: "vibes", Loop: "x"}), ev, "unknown fact kind")
	// Schema 2 has no dependence-evidence or part kinds.
	for _, k := range []string{"conflict", "tracker-clean", "static", "no-dependence-evidence", "part"} {
		wantInvalid(t, serialWith(Fact{Kind: k, Loop: "x"}), ev, "unknown fact kind")
	}
	wantInvalid(t, handPlan(LoopPlan{Loop: "x", Action: Parallelize, Rationale: []Fact{
		{Kind: FactBudget, Loop: "x", Value: 4},
		{Kind: FactRank, Loop: "x", Value: 0.1}, // real share is 0.9
	}}), ev, "rank fact share")
}

// Validator legality paths the planner never takes on its own.
func TestValidateRejectsIllegalParallelizations(t *testing.T) {
	// Budget-failing loop parallelized.
	weak := cleanLoop("weak", 0.9, 10_000)
	ev := Evidence{Loops: []LoopEvidence{weak}}
	wantInvalid(t, handPlan(LoopPlan{Loop: "weak", Action: Parallelize, Rationale: []Fact{
		{Kind: FactBudget, Loop: "weak", Value: 0.2},
	}}), ev, "fails its sync budget")

	// Missing budget fact on an otherwise legal parallelization.
	ok := cleanLoop("ok", 0.9, 200_000)
	ev2 := Evidence{Loops: []LoopEvidence{ok}}
	wantInvalid(t, handPlan(LoopPlan{Loop: "ok", Action: Parallelize, Rationale: []Fact{
		{Kind: FactRank, Loop: "ok", Value: 0.9},
	}}), ev2, "without a budget fact")
}

func TestValidateMergeObligations(t *testing.T) {
	a, b := cleanLoop("a", 0.5, 20_000), cleanLoop("b", 0.4, 20_000)
	a.Group, b.Group = "g", "g"
	ev := Evidence{Loops: []LoopEvidence{a, b}}
	fused := func(l string) []Fact {
		return []Fact{{Kind: FactGroupBudget, Loop: l, Value: 0.5}}
	}
	// Fused region that still fails the combined budget.
	wantInvalid(t, &Plan{Schema: Schema, Loops: []LoopPlan{
		{Loop: "a", Action: Merge, Group: "g", Rationale: fused("a")},
		{Loop: "b", Action: Merge, Group: "g", Rationale: fused("b")},
	}}, ev, "fails the budget")

	// Merge whose stated group contradicts the evidence group.
	big, small := cleanLoop("big", 0.5, 120_000), cleanLoop("small", 0.4, 20_000)
	big.Group, small.Group = "g", "g"
	ev2 := Evidence{Loops: []LoopEvidence{big, small}}
	wantInvalid(t, &Plan{Schema: Schema, Loops: []LoopPlan{
		{Loop: "big", Action: Merge, Group: "other", Rationale: fused("big")},
		{Loop: "small", Action: Merge, Group: "g", Rationale: fused("small")},
	}}, ev2, "evidence group")

	// A group of one is not a merge.
	solo := cleanLoop("solo", 0.9, 120_000)
	solo.Group = "h"
	wantInvalid(t, handPlan(LoopPlan{Loop: "solo", Action: Merge, Group: "h", Rationale: fused("solo")}),
		Evidence{Loops: []LoopEvidence{solo}}, "need >= 2")

	// A merge without its group-budget fact.
	wantInvalid(t, &Plan{Schema: Schema, Loops: []LoopPlan{
		{Loop: "big", Action: Merge, Group: "g", Rationale: []Fact{{Kind: FactBudget, Loop: "big", Value: 2.4}}},
		{Loop: "small", Action: Merge, Group: "g", Rationale: fused("small")},
	}}, ev2, "without a group-budget fact")
}

// Applied/Changes edge paths: plans that do not cover the evidence,
// and merged groups in Changes.
func TestAppliedAndChangesEdges(t *testing.T) {
	// Loop absent from the plan carries over untouched.
	l := cleanLoop("extra", 0.5, 100_000)
	out := Applied(Evidence{Loops: []LoopEvidence{l}}, &Plan{Schema: Schema})
	if len(out.Loops) != 1 || out.Loops[0].Name != "extra" {
		t.Fatalf("unplanned loop mangled: %+v", out.Loops)
	}

	// A merged group becomes one loop under the group's name that sums
	// its members.
	big, small := cleanLoop("big", 0.5, 120_000), cleanLoop("small", 0.4, 20_000)
	big.Group, small.Group = "g", "g"
	ev := Evidence{Loops: []LoopEvidence{big, small}}
	ap := Applied(ev, PlanFromEvidence(ev))
	if len(ap.Loops) != 1 || ap.Loops[0].Name != "g" || !close64(ap.Loops[0].RankShare, 0.9) ||
		ap.Loops[0].WorkPerSyncCycles != mergedWorkPerSync([]*LoopEvidence{&big, &small}) {
		t.Fatalf("merged group applied as %+v", ap.Loops)
	}

	// Changes: a merged group's demotion is reported.
	prev := &Plan{Schema: Schema, Loops: []LoopPlan{{Loop: "a", Action: Merge, Group: "g"}}}
	next := &Plan{Schema: Schema, Loops: []LoopPlan{{Loop: "g", Action: Serial}}}
	if ch := Changes(prev, next); len(ch) != 1 || !strings.Contains(ch[0], `"g"`) {
		t.Fatalf("changes = %v, want the merged-group demotion", ch)
	}
}
