package pipeline

import (
	"strings"
	"testing"
)

// handPlan builds a plan around one decision, for validator tests.
func handPlan(lp LoopPlan) *Plan {
	return &Plan{Schema: Schema, Loops: []LoopPlan{lp}}
}

func wantInvalid(t *testing.T, p *Plan, ev Evidence, frag string) {
	t.Helper()
	err := Validate(p, ev)
	if err == nil {
		t.Fatalf("invalid plan accepted (want error containing %q)", frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("error %q does not mention %q", err, frag)
	}
}

// The headline negative: no valid plan parallelizes a loop the Tracker
// flagged, whatever rationale it claims.
func TestValidateRejectsParallelizedConflictLoop(t *testing.T) {
	l := cleanLoop("racy", 0.9, 200_000)
	l.Tracked = true
	l.Conflicts = oneConflict()
	ev := Evidence{Loops: []LoopEvidence{l}}
	wantInvalid(t, handPlan(LoopPlan{
		Loop: "racy", Action: Parallelize,
		Rationale: []Fact{{Kind: FactStatic, Loop: "racy"}},
	}), ev, "illegally")
}

func TestValidateRejectsEmptyRationale(t *testing.T) {
	ev := Evidence{Loops: []LoopEvidence{cleanLoop("x", 0.9, 200_000)}}
	wantInvalid(t, handPlan(LoopPlan{Loop: "x", Action: Parallelize}), ev, "empty rationale")
}

func TestValidateRejectsMissingAndExtraLoops(t *testing.T) {
	ev := Evidence{Loops: []LoopEvidence{cleanLoop("x", 0.9, 200_000)}}
	wantInvalid(t, &Plan{Schema: Schema}, ev, "no decision")
	wantInvalid(t, &Plan{Schema: Schema, Loops: []LoopPlan{
		{Loop: "x", Action: Serial, Rationale: []Fact{{Kind: FactBudget, Loop: "x", Value: 4}}},
		{Loop: "ghost", Action: Serial, Rationale: []Fact{{Kind: FactCold, Loop: "ghost"}}},
	}}, ev, "absent from evidence")
}

// A fact must state the evidence's numbers, not invented ones.
func TestValidateRejectsDishonestFacts(t *testing.T) {
	l := cleanLoop("x", 0.9, 200_000)
	ev := Evidence{Loops: []LoopEvidence{l}}
	wantInvalid(t, handPlan(LoopPlan{
		Loop: "x", Action: Parallelize,
		Rationale: []Fact{
			{Kind: FactStatic, Loop: "x"},
			{Kind: FactBudget, Loop: "x", Value: 99}, // real ratio is 4
		},
	}), ev, "budget fact ratio")
	wantInvalid(t, handPlan(LoopPlan{
		Loop: "x", Action: Serial,
		Rationale: []Fact{{Kind: FactConflict, Loop: "x", Value: 1}},
	}), ev, "no observed conflicts")
	wantInvalid(t, handPlan(LoopPlan{
		Loop: "x", Action: Parallelize,
		Rationale: []Fact{{Kind: FactStatic, Loop: "y"}},
	}), ev, "names loop")
}

func TestValidateRejectsSplitMergeGroup(t *testing.T) {
	a, b := cleanLoop("a", 0.5, 120_000), cleanLoop("b", 0.4, 20_000)
	a.Group, b.Group = "g", "g"
	ev := Evidence{Loops: []LoopEvidence{a, b}}
	p := &Plan{Schema: Schema, Loops: []LoopPlan{
		{Loop: "a", Action: Merge, Group: "g", Rationale: []Fact{
			{Kind: FactStatic, Loop: "a"},
			{Kind: FactGroupBudget, Loop: "a", Value: 1.9},
		}},
		{Loop: "b", Action: Serial, Rationale: []Fact{
			{Kind: FactBudget, Loop: "b", Value: budgetRatio(20_000, 50_000)},
		}},
	}}
	wantInvalid(t, p, ev, "splits")
}

func TestValidateRejectsBadFission(t *testing.T) {
	l := cleanLoop("rhs", 0.8, 200_000)
	l.Parts = []PartEvidence{
		{Name: "jk", WorkFrac: 0.6, Static: StaticParallel},
		{Name: "l", WorkFrac: 0.4, Static: StaticSerial},
	}
	ev := Evidence{Loops: []LoopEvidence{l}}
	rationale := []Fact{{Kind: FactStatic, Loop: "rhs", Part: "jk"}}
	// Parallelizing the statically-serial part.
	wantInvalid(t, handPlan(LoopPlan{
		Loop: "rhs", Action: Fission,
		ParallelParts: []string{"jk", "l"}, Rationale: rationale,
	}), ev, "without dependence evidence")
	// Partition not covering the declared parts.
	wantInvalid(t, handPlan(LoopPlan{
		Loop: "rhs", Action: Fission,
		ParallelParts: []string{"jk"}, Rationale: rationale,
	}), ev, "assigns 1 part(s)")
	// Duplicate assignment.
	wantInvalid(t, handPlan(LoopPlan{
		Loop: "rhs", Action: Fission,
		ParallelParts: []string{"jk"}, SerialParts: []string{"jk"}, Rationale: rationale,
	}), ev, "both parallel and serial")
	// No parallel part: that is not a fission, it is a serial loop.
	wantInvalid(t, handPlan(LoopPlan{
		Loop: "rhs", Action: Fission,
		SerialParts: []string{"jk", "l"}, Rationale: rationale,
	}), ev, "no parallel part")
}

func TestValidateRejectsUnknownActionAndSchema(t *testing.T) {
	l := cleanLoop("x", 0.9, 200_000)
	ev := Evidence{Loops: []LoopEvidence{l}}
	wantInvalid(t, handPlan(LoopPlan{
		Loop: "x", Action: "vectorize",
		Rationale: []Fact{{Kind: FactStatic, Loop: "x"}},
	}), ev, "unknown action")
	wantInvalid(t, &Plan{Schema: 99, Loops: []LoopPlan{{Loop: "x", Action: Serial,
		Rationale: []Fact{{Kind: FactBudget, Loop: "x", Value: 4}}}}}, ev, "schema")
	if err := Validate(nil, ev); err == nil {
		t.Fatal("nil plan accepted")
	}
}

// Serial is not a free pass: the demotion must cite a real fact.
func TestValidateRejectsUnjustifiedSerial(t *testing.T) {
	l := cleanLoop("x", 0.9, 200_000)
	ev := Evidence{Loops: []LoopEvidence{l}}
	wantInvalid(t, handPlan(LoopPlan{
		Loop: "x", Action: Serial,
		Rationale: []Fact{{Kind: FactRank, Loop: "x", Value: 0.9}},
	}), ev, "demotion fact")
	// A cold fact on a hot loop is dishonest.
	wantInvalid(t, handPlan(LoopPlan{
		Loop: "x", Action: Serial,
		Rationale: []Fact{{Kind: FactCold, Loop: "x", Value: 0.9}},
	}), ev, "cold fact")
}
