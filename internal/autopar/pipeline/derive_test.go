package pipeline

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/parloop"
)

// tracePhases runs two prefixed phase loops on a traced team, the way
// a phase-traced daemon job would, plus an out-of-prefix loop and the
// rhs of a job named "<prefix>/x", whose labels share the prefix.
func tracePhases(t *testing.T, prefix string) []obs.Event {
	t.Helper()
	tr := obs.NewTracer(1<<14, nil)
	tr.Enable()
	team := parloop.NewTeam(4)
	defer team.Close()
	team.SetTracer(tr, prefix+"/rhs")
	for i := 0; i < 3; i++ {
		team.For(64, func(int) { spin(20_000) })
	}
	team.SetLabel(prefix + "/sweep-jk")
	for i := 0; i < 3; i++ {
		team.For(64, func(int) { spin(10_000) })
	}
	team.SetLabel("otherjob/loop") // must not leak into this job's plan
	team.For(64, func(int) { spin(5_000) })
	team.SetLabel(prefix + "/x/rhs") // nor may the "<prefix>/x" job's
	team.For(64, func(int) { spin(5_000) })
	return tr.Events()
}

func TestDerivePlansOnlyThePrefix(t *testing.T) {
	events := tracePhases(t, "jobA")
	p, err := Derive(events, "jobA", F3DStructure("jobA"), analyze.Config{})
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	if p.Source != "jobA" {
		t.Errorf("plan source %q, want the prefix", p.Source)
	}
	if _, ok := p.Decision("jobA/rhs"); !ok {
		t.Fatalf("plan misses the traced rhs loop: %+v", p.Loops)
	}
	if _, ok := p.Decision("otherjob/loop"); ok {
		t.Fatal("plan includes another job's loop")
	}
	// "jobA/x/rhs" matches the prefix but is no declared jobA phase.
	if len(p.Loops) != 2 {
		t.Fatalf("plan %v, want only jobA's rhs and sweep-jk", planNames(p))
	}
	// Pure: the same inputs give the same plan, and nothing is kept
	// between calls — the caller owns caching.
	p2, err := Derive(events, "jobA", F3DStructure("jobA"), analyze.Config{})
	if err != nil || !reflect.DeepEqual(p, p2) {
		t.Fatalf("second derivation differs: %v\n%+v\n%+v", err, p, p2)
	}
}

func TestDeriveNoEvidence(t *testing.T) {
	if _, err := Derive(nil, "j", nil, analyze.Config{}); !errors.Is(err, ErrNoEvidence) {
		t.Fatalf("empty trace: %v, want ErrNoEvidence", err)
	}
	// Events exist, but none under this job's prefix.
	events := tracePhases(t, "j")
	if _, err := Derive(events, "k", F3DStructure("k"), analyze.Config{}); !errors.Is(err, ErrNoEvidence) {
		t.Fatalf("foreign trace: %v, want ErrNoEvidence", err)
	}
	// Without a declared structure no traced loop is allowed in.
	if _, err := Derive(events, "j", nil, analyze.Config{}); !errors.Is(err, ErrNoEvidence) {
		t.Fatalf("undeclared trace: %v, want ErrNoEvidence", err)
	}
	// Nothing is remembered about the failures: the declared phases
	// still yield a plan.
	if _, err := Derive(events, "j", F3DStructure("j"), analyze.Config{}); err != nil {
		t.Fatalf("Derive after evidence: %v", err)
	}
}
