package main

import (
	"errors"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// runAsF3D is set in the environment of a child test binary that is to
// run main with the child's arguments instead of the tests.
const runAsF3D = "F3D_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsF3D) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runF3D runs main in a child process with args and returns its stdout,
// stderr and exit status.
func runF3D(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runAsF3D+"=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("run f3d %v: %v", args, err)
	}
	return stdout.String(), stderr.String(), cmd.ProcessState.ExitCode()
}

// TestErrorLines: every error is one line with one "f3d: " prefix, the
// f3d package's errors included, and a diverged run names its step.
func TestErrorLines(t *testing.T) {
	tiny := []string{"-case", "single", "-dims", "9x8x7", "-steps", "2", "-quiet"}
	for _, tc := range []struct {
		name string
		args []string
		line string
		code int
	}{
		{"bad pulse", append(tiny, "-pulse", "Inf"), "f3d: pulse amplitude +Inf must be finite", 2},
		{"bad case", []string{"-case", "bogus"}, `f3d: unknown case "bogus"`, 2},
		{"diverged", append(tiny, "-pulse", "1e300"), "f3d: step 1: solution diverged: ", 1},
	} {
		_, stderr, code := runF3D(t, tc.args...)
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d (stderr %q)", tc.name, code, tc.code, stderr)
		}
		if !strings.HasPrefix(stderr, tc.line) || strings.Count(stderr, "f3d:") != 1 || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%s: stderr %q, want one line starting %q", tc.name, stderr, tc.line)
		}
	}
}

// TestProfileRows: -profile prints the step's phase spans as 12 ranked
// rows "zoneN/<group>", one call a step each, on one worker, on two and
// with one team per zone.
func TestProfileRows(t *testing.T) {
	zones := []string{"zone1", "zone2", "zone3"}
	groups := []string{"bc", "rhs", "residual", "sweep-jk", "sweep-l"}
	for _, extra := range [][]string{{"-workers", "1"}, {"-workers", "2"}, {"-mlp", "-workers", "2"}} {
		args := append([]string{"-case", "1m", "-steps", "3", "-profile", "-quiet"}, extra...)
		stdout, stderr, code := runF3D(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit %d, stderr %q", extra, code, stderr)
		}
		_, table, ok := strings.Cut(stdout, "per-phase profile (prof-style):\n")
		if !ok {
			t.Fatalf("%v: no profile in\n%s", extra, stdout)
		}
		rows := strings.Split(strings.TrimSpace(table), "\n")[1:] // past the header
		if len(rows) != 12 {
			t.Fatalf("%v: %d rows, want 12:\n%s", extra, len(rows), table)
		}
		seen := map[string]bool{}
		for _, row := range rows {
			f := strings.Fields(row)
			zone, group, _ := strings.Cut(f[1], "/")
			if !slices.Contains(zones, zone) || !slices.Contains(groups, group) || seen[f[1]] || f[4] != "3" {
				t.Errorf("%v: row %q, want a new zone{1,2,3}/<group> with 3 calls", extra, row)
			}
			seen[f[1]] = true
		}
	}
}
