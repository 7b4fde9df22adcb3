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
			{Kind: FactBudget, Loop: "x", Value: 99}, // real ratio is 4
		},
	}), ev, "budget fact ratio")
	wantInvalid(t, handPlan(LoopPlan{
		Loop: "x", Action: Parallelize,
		Rationale: []Fact{{Kind: FactBudget, Loop: "y", Value: 4}},
	}), ev, "names loop")
}

func TestValidateRejectsSplitMergeGroup(t *testing.T) {
	a, b := cleanLoop("a", 0.5, 120_000), cleanLoop("b", 0.4, 20_000)
	a.Group, b.Group = "g", "g"
	ev := Evidence{Loops: []LoopEvidence{a, b}}
	p := &Plan{Schema: Schema, Loops: []LoopPlan{
		{Loop: "a", Action: Merge, Group: "g", Rationale: []Fact{
			{Kind: FactGroupBudget, Loop: "a", Value: 1.9},
		}},
		{Loop: "b", Action: Serial, Rationale: []Fact{
			{Kind: FactBudget, Loop: "b", Value: budgetRatio(20_000, 50_000)},
		}},
	}}
	wantInvalid(t, p, ev, "splits")
}

func TestValidateRejectsUnknownActionAndSchema(t *testing.T) {
	l := cleanLoop("x", 0.9, 200_000)
	ev := Evidence{Loops: []LoopEvidence{l}}
	// Schema 2 has no fission action.
	for _, a := range []Action{"vectorize", "fission"} {
		wantInvalid(t, handPlan(LoopPlan{
			Loop: "x", Action: a,
			Rationale: []Fact{{Kind: FactBudget, Loop: "x", Value: 4}},
		}), ev, "unknown action")
	}
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
