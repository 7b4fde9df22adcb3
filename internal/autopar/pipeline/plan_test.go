package pipeline

import (
	"strings"
	"testing"
)

// cleanLoop builds a budget-relevant loop.
func cleanLoop(name string, share, wps float64) LoopEvidence {
	return LoopEvidence{
		Name:              name,
		RankShare:         share,
		WorkNs:            int64(share * 1e9),
		Workers:           4,
		SyncEvents:        10,
		WorkPerSyncCycles: wps,
		MinWorkCycles:     50_000,
		BudgetPass:        wps >= 50_000,
	}
}

func mustValidate(t *testing.T, p *Plan, ev Evidence) {
	t.Helper()
	if err := Validate(p, ev); err != nil {
		t.Fatalf("planner emitted an invalid plan: %v", err)
	}
}

func TestPlanParallelizesHotCleanLoop(t *testing.T) {
	ev := Evidence{Source: "t", Procs: 4, Loops: []LoopEvidence{cleanLoop("hot", 0.9, 200_000)}}
	p := PlanFromEvidence(ev)
	mustValidate(t, p, ev)
	d, ok := p.Decision("hot")
	if !ok || d.Action != Parallelize {
		t.Fatalf("decision = %+v, want parallelize", d)
	}
	if !hasKind(d.Rationale, FactBudget) || !hasKind(d.Rationale, FactRank) {
		t.Errorf("rationale missing budget/rank facts: %+v", d.Rationale)
	}
}

func TestPlanDemotesBudgetFailAndCold(t *testing.T) {
	ev := Evidence{Loops: []LoopEvidence{
		cleanLoop("tiny", 0.6, 10_000),    // budget fail
		cleanLoop("cold", 0.0001, 90_000), // passes budget, below rank threshold
	}}
	p := PlanFromEvidence(ev)
	mustValidate(t, p, ev)
	if d, _ := p.Decision("tiny"); d.Action != Serial || !hasKind(d.Rationale, FactBudget) {
		t.Errorf("budget-failing loop: %+v, want serial with budget fact", d)
	}
	if d, _ := p.Decision("cold"); d.Action != Serial || !hasKind(d.Rationale, FactCold) {
		t.Errorf("cold loop: %+v, want serial with cold fact", d)
	}
}

// Two adjacent regions where one cannot amortize its own fork-join but
// the fused region can: the Example 2/3 merge.
func TestPlanMergesAdjacentRegions(t *testing.T) {
	big := cleanLoop("big", 0.7, 120_000)
	small := cleanLoop("small", 0.2, 20_000) // fails alone
	big.Group, small.Group = "step", "step"
	ev := Evidence{Loops: []LoopEvidence{big, small}}
	p := PlanFromEvidence(ev)
	mustValidate(t, p, ev)
	for _, name := range []string{"big", "small"} {
		d, _ := p.Decision(name)
		if d.Action != Merge || d.Group != "step" {
			t.Fatalf("loop %s: %+v, want merge into step", name, d)
		}
		if !hasKind(d.Rationale, FactGroupBudget) {
			t.Errorf("loop %s merged without group-budget fact", name)
		}
	}
	// Fused: (120k+20k)/(1+0.5) ≈ 93k >= 50k.
	next := PlanFromEvidence(Applied(ev, p))
	if ch := Changes(p, next); len(ch) != 0 {
		t.Errorf("merge not a fixed point: %v", ch)
	}
	if d, ok := next.Decision("step"); !ok || d.Action != Parallelize {
		t.Errorf("fused region re-plans as %+v, want parallelize", d)
	}
}

// A group whose members all clear their own budgets stays unfused: the
// merge transform exists to rescue failing loops, not to fuse for its
// own sake.
func TestPlanNoMergeWhenAllPass(t *testing.T) {
	a, b := cleanLoop("a", 0.5, 120_000), cleanLoop("b", 0.4, 120_000)
	a.Group, b.Group = "g", "g"
	ev := Evidence{Loops: []LoopEvidence{a, b}}
	p := PlanFromEvidence(ev)
	mustValidate(t, p, ev)
	if p.Count(Merge) != 0 || p.Count(Parallelize) != 2 {
		t.Fatalf("plan = %+v, want two parallelize and no merge", p.Loops)
	}
}

// A merge must not launder a budget failure the fused region cannot
// fix: two tiny loops stay serial.
func TestPlanNoMergeWhenFusedStillFails(t *testing.T) {
	a, b := cleanLoop("a", 0.5, 20_000), cleanLoop("b", 0.4, 20_000)
	a.Group, b.Group = "g", "g"
	ev := Evidence{Loops: []LoopEvidence{a, b}}
	p := PlanFromEvidence(ev)
	mustValidate(t, p, ev)
	// Fused: 40k/1.5 ≈ 27k < 50k — no merge, both serial.
	if p.Count(Serial) != 2 {
		t.Fatalf("plan = %+v, want both serial", p.Loops)
	}
}

// Plans come out hottest loop first — the §4 ranking order.
func TestPlanOrderHottestFirst(t *testing.T) {
	ev := Evidence{Loops: []LoopEvidence{
		cleanLoop("warm", 0.3, 100_000),
		cleanLoop("hot", 0.6, 100_000),
		cleanLoop("cool", 0.1, 100_000),
	}}
	p := PlanFromEvidence(ev)
	want := []string{"hot", "warm", "cool"}
	for i, lp := range p.Loops {
		if lp.Loop != want[i] {
			t.Fatalf("plan order %v, want %v", planNames(p), want)
		}
	}
}

func planNames(p *Plan) []string {
	var out []string
	for _, lp := range p.Loops {
		out = append(out, lp.Loop)
	}
	return out
}

func TestChangesReportsFlips(t *testing.T) {
	prev := &Plan{Schema: Schema, Loops: []LoopPlan{
		{Loop: "a", Action: Parallelize},
		{Loop: "b", Action: Serial},
	}}
	next := &Plan{Schema: Schema, Loops: []LoopPlan{
		{Loop: "a", Action: Serial},
		{Loop: "b", Action: Serial},
	}}
	ch := Changes(prev, next)
	if len(ch) != 1 || !strings.Contains(ch[0], `"a"`) {
		t.Fatalf("changes = %v, want one flip on a", ch)
	}
}

func TestPlanCountAndDecision(t *testing.T) {
	ev := Evidence{Loops: []LoopEvidence{cleanLoop("x", 0.9, 200_000)}}
	p := PlanFromEvidence(ev)
	if p.Count(Parallelize) != 1 || p.Count(Serial) != 0 {
		t.Errorf("counts wrong: %+v", p.Loops)
	}
	if _, ok := p.Decision("absent"); ok {
		t.Errorf("Decision invented an entry")
	}
}

// The general fixed-point property over a workload exercising every
// action: parallelize, serial (cold, budget) and merge in one evidence
// set. Re-planning from the applied evidence must propose no changes,
// and both plans must validate.
func TestPlanFixedPointAcrossAllActions(t *testing.T) {
	grouped := func(l LoopEvidence) LoopEvidence { l.Group = "fuse"; return l }
	ev := Evidence{Source: "synthetic", Procs: 4, Loops: []LoopEvidence{
		cleanLoop("hot", 0.45, 200_000),
		cleanLoop("tiny", 0.2, 20_000),
		grouped(cleanLoop("groupbig", 0.25, 120_000)),
		grouped(cleanLoop("groupsmall", 0.08, 20_000)),
		cleanLoop("cold", 0.002, 100_000),
	}}
	p := PlanFromEvidence(ev)
	mustValidate(t, p, ev)
	for a, want := range map[Action]int{Parallelize: 1, Serial: 2, Merge: 2} {
		if got := p.Count(a); got != want {
			t.Errorf("%s count = %d, want %d (plan %+v)", a, got, want, p.Loops)
		}
	}
	applied := Applied(ev, p)
	next := PlanFromEvidence(applied)
	mustValidate(t, next, applied)
	if ch := Changes(p, next); len(ch) != 0 {
		t.Fatalf("plan not a fixed point on a stable workload: %v", ch)
	}
}
