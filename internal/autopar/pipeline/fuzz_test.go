package pipeline

import (
	"fmt"
	"reflect"
	"testing"
)

// evidenceFromBytes deterministically synthesizes planner evidence
// from a fuzz payload: up to 8 loops with fuzzed rankings, budgets and
// merge groups. Loop names are index-derived so the generator never
// produces the duplicate-name inputs the validator (rightly) rejects.
func evidenceFromBytes(data []byte) Evidence {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	nLoops := int(next())%8 + 1
	ev := Evidence{Source: "fuzz", Procs: int(next())%8 + 1, SyncCostCycles: 10_000}
	for i := 0; i < nLoops; i++ {
		l := LoopEvidence{
			Name:              fmt.Sprintf("L%d", i),
			RankShare:         float64(next()) / 255,
			WorkNs:            int64(next()) * 1_000_000,
			Workers:           int(next())%8 + 1,
			SyncEvents:        int(next()) % 64,
			WorkPerSyncCycles: float64(next()) * 1_000,
			MinWorkCycles:     float64(next()) * 500,
		}
		l.BudgetPass = l.WorkPerSyncCycles >= l.MinWorkCycles
		if g := next() % 4; g != 0 {
			l.Group = fmt.Sprintf("g%d", g)
		}
		ev.Loops = append(ev.Loops, l)
	}
	return ev
}

// FuzzPlanFromEvidence: for arbitrary ranking/budget/group triples the
// planner must emit a plan that (1) validates against its own evidence
// — so it never runs a loop alone that fails its budget, never splits a
// merge group, and every rationale is closure-complete — (2) is
// deterministic, and (3) is a fixed point under re-planning from the
// applied evidence.
func FuzzPlanFromEvidence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 4, 200, 10, 4, 8, 250, 9, 1, 0, 1, 2, 100, 1, 130, 1, 0})
	f.Add([]byte("merge-groups-seed-corpus-entry"))
	f.Add([]byte{8, 2, 255, 255, 8, 63, 255, 0, 2, 0, 2, 2, 128, 2, 64, 1, 1, 7, 99, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		ev := evidenceFromBytes(data)
		p := PlanFromEvidence(ev)
		if err := Validate(p, ev); err != nil {
			t.Fatalf("planner emitted an invalid plan: %v\nevidence: %+v", err, ev)
		}
		for _, lp := range p.Loops {
			l := ev.Loop(lp.Loop)
			if lp.Action == Parallelize && (!l.BudgetPass || l.RankShare < minRankShare) {
				t.Fatalf("budget-failing or cold loop %q parallelized", lp.Loop)
			}
			if len(lp.Rationale) == 0 {
				t.Fatalf("loop %q decided without rationale", lp.Loop)
			}
		}
		if p2 := PlanFromEvidence(ev); !reflect.DeepEqual(p, p2) {
			t.Fatalf("planner nondeterministic:\n%+v\nvs\n%+v", p, p2)
		}
		applied := Applied(ev, p)
		next := PlanFromEvidence(applied)
		if err := Validate(next, applied); err != nil {
			t.Fatalf("re-plan invalid: %v", err)
		}
		if ch := Changes(p, next); len(ch) != 0 {
			t.Fatalf("plan not a fixed point: %v\nevidence: %+v", ch, ev)
		}
	})
}
