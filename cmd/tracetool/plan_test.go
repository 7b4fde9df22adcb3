package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from current output")

// TestPlanCommandGolden pins the rendered decision table against
// testdata/plan.golden (refresh with -update). The input fixture is
// byte-identical to the f3dd GET /jobs/{id}/plan golden, so the two
// tests pin opposite sides of the same wire contract.
func TestPlanCommandGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"plan", filepath.Join("testdata", "plan.json")}, nil, &stdout, &stderr); code != 0 {
		t.Fatalf("plan exited %d: %s", code, stderr.String())
	}

	golden := filepath.Join("testdata", "plan.golden")
	if *update {
		if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
			t.Fatalf("update %s: %v", golden, err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read %s (run with -update to create): %v", golden, err)
	}
	if stdout.String() != string(want) {
		t.Fatalf("plan output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s",
			golden, stdout.String(), want)
	}
	// Every action and the rationale vocabulary must survive format
	// tweaks.
	for _, needle := range []string{"parallelize", "merge", "fission", "serial",
		"group-budget", "Table 1", "parallel [jk], serial [l]"} {
		if !strings.Contains(stdout.String(), needle) {
			t.Errorf("output missing %q", needle)
		}
	}
}

// TestPlanCommandFixtureMatchesDaemonGolden keeps the fixture and the
// f3dd-side golden from drifting apart: same bytes, same contract.
func TestPlanCommandFixtureMatchesDaemonGolden(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "plan.json"))
	if err != nil {
		t.Fatal(err)
	}
	daemon, err := os.ReadFile(filepath.Join("..", "f3dd", "testdata", "plan.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fixture, daemon) {
		t.Fatal("testdata/plan.json drifted from cmd/f3dd/testdata/plan.golden; copy it over")
	}
}

// TestPlanCommandStdin reads the plan from stdin via "-".
func TestPlanCommandStdin(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "plan.json"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"plan", "-"}, bytes.NewReader(data), &stdout, &stderr); code != 0 {
		t.Fatalf("plan - exited %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "golden/rhs") {
		t.Fatalf("stdin render missing loop name:\n%s", stdout.String())
	}
}

// TestPlanCommandErrors: unreadable input, bad JSON and a body with no
// plan exit 2.
func TestPlanCommandErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"plan", "no-such-file.json"}, nil, &stdout, &stderr); code != 2 {
		t.Fatalf("missing file exited %d, want 2", code)
	}
	if code := run([]string{"plan", "-"}, strings.NewReader("{not json"), &stdout, &stderr); code != 2 {
		t.Fatalf("bad JSON exited %d, want 2", code)
	}
	if code := run([]string{"plan", "-"}, strings.NewReader(`{"id":1}`), &stdout, &stderr); code != 2 {
		t.Fatalf("plan-less body exited %d, want 2", code)
	}
	if code := run([]string{"plan"}, nil, &stdout, &stderr); code != 2 {
		t.Fatalf("no args exited %d, want 2", code)
	}
}
