package pipeline

import (
	"math/rand"
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
	l := cleanLoop("x", 0.9, 200_000)
	l.Parts = []PartEvidence{{Name: "pp", WorkFrac: 0.5, Static: StaticUnknown}}
	ev := Evidence{Loops: []LoopEvidence{l}}
	serialWith := func(f Fact) *Plan {
		return handPlan(LoopPlan{Loop: "x", Action: Serial, Rationale: []Fact{f}})
	}
	wantInvalid(t, serialWith(Fact{Kind: FactTrackerClean, Loop: "x"}), ev, "tracker-clean fact unsupported")
	wantInvalid(t, serialWith(Fact{Kind: FactNoEvidence, Loop: "x"}), ev, "evidence exists")
	wantInvalid(t, serialWith(Fact{Kind: FactGroupBudget, Loop: "x"}), ev, "ungrouped")
	wantInvalid(t, serialWith(Fact{Kind: FactPart, Loop: "x"}), ev, "part fact without a part")
	wantInvalid(t, serialWith(Fact{Kind: "vibes", Loop: "x"}), ev, "unknown fact kind")
	wantInvalid(t, serialWith(Fact{Kind: FactBudget, Loop: "x", Part: "nope", Value: 4}), ev, "unknown part")
	wantInvalid(t, handPlan(LoopPlan{Loop: "x", Action: Parallelize, Rationale: []Fact{
		{Kind: FactStatic, Loop: "x"},
		{Kind: FactBudget, Loop: "x", Value: 4},
		{Kind: FactRank, Loop: "x", Value: 0.1}, // real share is 0.9
	}}), ev, "rank fact share")

	// Unknown static verdict cannot back a static fact.
	u := cleanLoop("u", 0.9, 200_000)
	u.Static = StaticUnknown
	u.Tracked = true
	evu := Evidence{Loops: []LoopEvidence{u}}
	wantInvalid(t, handPlan(LoopPlan{Loop: "u", Action: Parallelize, Rationale: []Fact{
		{Kind: FactStatic, Loop: "u"},
		{Kind: FactBudget, Loop: "u", Value: 4},
	}}), evu, "verdict is")
}

// Validator legality paths the planner never takes on its own.
func TestValidateRejectsIllegalParallelizations(t *testing.T) {
	// Budget-failing loop parallelized.
	weak := cleanLoop("weak", 0.9, 10_000)
	ev := Evidence{Loops: []LoopEvidence{weak}}
	wantInvalid(t, handPlan(LoopPlan{Loop: "weak", Action: Parallelize, Rationale: []Fact{
		{Kind: FactStatic, Loop: "weak"},
		{Kind: FactBudget, Loop: "weak", Value: 0.2},
	}}), ev, "fails its sync budget")

	// Loop with a conflicted part run whole-parallel.
	mixed := cleanLoop("mixed", 0.9, 200_000)
	mixed.Parts = []PartEvidence{{Name: "bad", WorkFrac: 0.5, Static: StaticParallel, Conflicts: oneConflict()}}
	evm := Evidence{Loops: []LoopEvidence{mixed}}
	wantInvalid(t, handPlan(LoopPlan{Loop: "mixed", Action: Parallelize, Rationale: []Fact{
		{Kind: FactStatic, Loop: "mixed"},
		{Kind: FactBudget, Loop: "mixed", Value: 4},
	}}), evm, "observed conflicts")

	// Statically-serial part run whole-parallel.
	mixed2 := cleanLoop("m2", 0.9, 200_000)
	mixed2.Parts = []PartEvidence{{Name: "ser", WorkFrac: 0.5, Static: StaticSerial}}
	ev2 := Evidence{Loops: []LoopEvidence{mixed2}}
	wantInvalid(t, handPlan(LoopPlan{Loop: "m2", Action: Parallelize, Rationale: []Fact{
		{Kind: FactStatic, Loop: "m2"},
		{Kind: FactBudget, Loop: "m2", Value: 4},
	}}), ev2, "statically serial")

	// No dependence evidence at all.
	unk := cleanLoop("unk", 0.9, 200_000)
	unk.Static = StaticUnknown
	ev3 := Evidence{Loops: []LoopEvidence{unk}}
	wantInvalid(t, handPlan(LoopPlan{Loop: "unk", Action: Parallelize, Rationale: []Fact{
		{Kind: FactBudget, Loop: "unk", Value: 4},
	}}), ev3, "no dependence evidence")

	// Missing fact kinds on an otherwise legal parallelization.
	ok := cleanLoop("ok", 0.9, 200_000)
	ev4 := Evidence{Loops: []LoopEvidence{ok}}
	wantInvalid(t, handPlan(LoopPlan{Loop: "ok", Action: Parallelize, Rationale: []Fact{
		{Kind: FactBudget, Loop: "ok", Value: 4},
	}}), ev4, "without a dependence fact")
	wantInvalid(t, handPlan(LoopPlan{Loop: "ok", Action: Parallelize, Rationale: []Fact{
		{Kind: FactStatic, Loop: "ok"},
	}}), ev4, "without a budget fact")
}

func TestValidateMergeObligations(t *testing.T) {
	a, b := cleanLoop("a", 0.5, 20_000), cleanLoop("b", 0.4, 20_000)
	a.Group, b.Group = "g", "g"
	ev := Evidence{Loops: []LoopEvidence{a, b}}
	dep := func(l string) []Fact {
		return []Fact{{Kind: FactStatic, Loop: l}, {Kind: FactGroupBudget, Loop: l, Value: 0.5}}
	}
	// Fused region that still fails the combined budget.
	wantInvalid(t, &Plan{Schema: Schema, Loops: []LoopPlan{
		{Loop: "a", Action: Merge, Group: "g", Rationale: dep("a")},
		{Loop: "b", Action: Merge, Group: "g", Rationale: dep("b")},
	}}, ev, "fails the budget")

	// Merge whose stated group contradicts the evidence group.
	big, small := cleanLoop("big", 0.5, 120_000), cleanLoop("small", 0.4, 20_000)
	big.Group, small.Group = "g", "g"
	ev2 := Evidence{Loops: []LoopEvidence{big, small}}
	wantInvalid(t, &Plan{Schema: Schema, Loops: []LoopPlan{
		{Loop: "big", Action: Merge, Group: "other", Rationale: dep("big")},
		{Loop: "small", Action: Merge, Group: "g", Rationale: dep("small")},
	}}, ev2, "evidence group")

	// A merged loop must itself be dependence-clean.
	racy := cleanLoop("racy", 0.3, 120_000)
	racy.Group = "g"
	racy.Conflicts = oneConflict()
	ev3 := Evidence{Loops: []LoopEvidence{big, small, racy}}
	wantInvalid(t, &Plan{Schema: Schema, Loops: []LoopPlan{
		{Loop: "big", Action: Merge, Group: "g", Rationale: dep("big")},
		{Loop: "small", Action: Merge, Group: "g", Rationale: dep("small")},
		{Loop: "racy", Action: Merge, Group: "g", Rationale: []Fact{
			{Kind: FactGroupBudget, Loop: "racy", Value: 0.5}}},
	}}, ev3, "ineligible")
}

// Applied/Changes edge paths: plans that do not cover the evidence,
// fission of parts lacking their own certificates, merged groups in
// Changes.
func TestAppliedAndChangesEdges(t *testing.T) {
	// Loop absent from the plan carries over untouched.
	l := cleanLoop("extra", 0.5, 100_000)
	out := Applied(Evidence{Loops: []LoopEvidence{l}}, &Plan{Schema: Schema})
	if len(out.Loops) != 1 || out.Loops[0].Name != "extra" {
		t.Fatalf("unplanned loop mangled: %+v", out.Loops)
	}

	// Fissioned part with no verdict of its own inherits the loop's
	// certificate; with neither, it lands unknown.
	host := cleanLoop("host", 0.8, 200_000)
	host.Parts = []PartEvidence{
		{Name: "u", WorkFrac: 0.6},
		{Name: "c", WorkFrac: 0.4, Conflicts: oneConflict()},
	}
	plan := handPlan(LoopPlan{Loop: "host", Action: Fission,
		ParallelParts: []string{"u"}, SerialParts: []string{"c"}})
	ap := Applied(Evidence{Loops: []LoopEvidence{host}}, plan)
	if u := ap.Loop("host-u"); u == nil || u.Static != StaticParallel {
		t.Errorf("part without verdict did not inherit the loop certificate: %+v", u)
	}
	host.Static = StaticUnknown
	host.Tracked = true
	ap2 := Applied(Evidence{Loops: []LoopEvidence{host}}, plan)
	if u := ap2.Loop("host-u"); u == nil || u.Static != StaticUnknown || !u.Tracked {
		t.Errorf("uncertified part: %+v", u)
	}

	// Changes: merged-group demotion and fission flips are reported.
	prev := &Plan{Schema: Schema, Loops: []LoopPlan{
		{Loop: "a", Action: Merge, Group: "g"},
		{Loop: "f", Action: Fission, ParallelParts: []string{"p"}, SerialParts: []string{"s"}},
	}}
	next := &Plan{Schema: Schema, Loops: []LoopPlan{
		{Loop: "g", Action: Serial},
		{Loop: "f-p", Action: Serial},
		{Loop: "f-s", Action: Parallelize},
	}}
	if ch := Changes(prev, next); len(ch) != 3 {
		t.Fatalf("changes = %v, want merged-group + two part flips", ch)
	}
}
