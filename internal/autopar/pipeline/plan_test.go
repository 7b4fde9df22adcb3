package pipeline

import (
	"strings"
	"testing"
)

// cleanLoop builds a statically-certified, budget-relevant loop.
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
		Static:            StaticParallel,
	}
}

func oneConflict() []Conflict {
	return []Conflict{{Array: "a", Index: 7, Kind: "write-read", Detail: "write-read race on a[7]"}}
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
	if !hasKind(d.Rationale, FactStatic) || !hasKind(d.Rationale, FactBudget) || !hasKind(d.Rationale, FactRank) {
		t.Errorf("rationale missing dependence/budget/rank facts: %+v", d.Rationale)
	}
}

func TestPlanDemotesObservedConflict(t *testing.T) {
	l := cleanLoop("racy", 0.9, 200_000)
	l.Tracked = true
	l.Conflicts = oneConflict()
	l.Static = StaticUnknown
	ev := Evidence{Loops: []LoopEvidence{l}}
	p := PlanFromEvidence(ev)
	mustValidate(t, p, ev)
	d, _ := p.Decision("racy")
	if d.Action != Serial {
		t.Fatalf("conflicted loop planned %s, want serial", d.Action)
	}
	if !hasKind(d.Rationale, FactConflict) {
		t.Errorf("no conflict fact in %+v", d.Rationale)
	}
}

// Even a conflict-free tracked run must not override a static serial
// proof: the dependence may be input-dependent.
func TestPlanDemotesStaticSerialDespiteCleanRun(t *testing.T) {
	l := cleanLoop("proven", 0.9, 200_000)
	l.Static = StaticSerial
	l.Tracked = true
	ev := Evidence{Loops: []LoopEvidence{l}}
	p := PlanFromEvidence(ev)
	mustValidate(t, p, ev)
	if d, _ := p.Decision("proven"); d.Action != Serial {
		t.Fatalf("statically serial loop planned %s, want serial", d.Action)
	}
}

func TestPlanDemotesWithoutDependenceEvidence(t *testing.T) {
	l := cleanLoop("mystery", 0.9, 200_000)
	l.Static = StaticUnknown // and not tracked
	ev := Evidence{Loops: []LoopEvidence{l}}
	p := PlanFromEvidence(ev)
	mustValidate(t, p, ev)
	d, _ := p.Decision("mystery")
	if d.Action != Serial || !hasKind(d.Rationale, FactNoEvidence) {
		t.Fatalf("unknown untracked loop: %+v, want serial with no-evidence fact", d)
	}
}

// A clean tracked run promotes a statically-unknown loop — the
// evidence-driven promotion the static planner alone cannot make.
func TestPlanPromotesTrackedUnknown(t *testing.T) {
	l := cleanLoop("promoted", 0.9, 200_000)
	l.Static = StaticUnknown
	l.Tracked = true
	ev := Evidence{Loops: []LoopEvidence{l}}
	p := PlanFromEvidence(ev)
	mustValidate(t, p, ev)
	d, _ := p.Decision("promoted")
	if d.Action != Parallelize || !hasKind(d.Rationale, FactTrackerClean) {
		t.Fatalf("tracked-clean unknown loop: %+v, want parallelize with tracker-clean fact", d)
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

// A mixed body whose obstruction localizes to one part fissions: the
// clean hot part runs parallel, the conflicted part stays serial.
func TestPlanFissionsMixedBody(t *testing.T) {
	l := cleanLoop("rhs", 0.8, 200_000)
	l.Parts = []PartEvidence{
		{Name: "jk", WorkFrac: 0.6, Static: StaticParallel},
		{Name: "l", WorkFrac: 0.4, Static: StaticParallel, Conflicts: oneConflict()},
	}
	ev := Evidence{Loops: []LoopEvidence{l}}
	p := PlanFromEvidence(ev)
	mustValidate(t, p, ev)
	d, _ := p.Decision("rhs")
	if d.Action != Fission {
		t.Fatalf("mixed body planned %s, want fission", d.Action)
	}
	if len(d.ParallelParts) != 1 || d.ParallelParts[0] != "jk" ||
		len(d.SerialParts) != 1 || d.SerialParts[0] != "l" {
		t.Fatalf("fission split %v / %v, want [jk] / [l]", d.ParallelParts, d.SerialParts)
	}
	next := PlanFromEvidence(Applied(ev, p))
	if ch := Changes(p, next); len(ch) != 0 {
		t.Errorf("fission not a fixed point: %v", ch)
	}
	if d, ok := next.Decision("rhs-jk"); !ok || d.Action != Parallelize {
		t.Errorf("fissioned parallel part re-plans as %+v", d)
	}
	if d, ok := next.Decision("rhs-l"); !ok || d.Action != Serial {
		t.Errorf("fissioned serial part re-plans as %+v", d)
	}
}

// When no part is worth isolating the mixed body stays serial whole.
func TestPlanMixedBodyWithNoViablePartStaysSerial(t *testing.T) {
	l := cleanLoop("rhs", 0.8, 60_000)
	l.Parts = []PartEvidence{
		// Clean but too small to amortize a region of its own.
		{Name: "jk", WorkFrac: 0.3, Static: StaticParallel},
		{Name: "l", WorkFrac: 0.7, Static: StaticSerial},
	}
	ev := Evidence{Loops: []LoopEvidence{l}}
	p := PlanFromEvidence(ev)
	mustValidate(t, p, ev)
	if d, _ := p.Decision("rhs"); d.Action != Serial {
		t.Fatalf("planned %s, want serial (18k cycles/sync part cannot amortize)", d.Action)
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
