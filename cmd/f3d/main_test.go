package main

import (
	"errors"
	"os"
	"os/exec"
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

// runF3D runs main in a child process with args and returns its stderr and
// exit status.
func runF3D(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runAsF3D+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("run f3d %v: %v", args, err)
	}
	return stderr.String(), cmd.ProcessState.ExitCode()
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
		stderr, code := runF3D(t, tc.args...)
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d (stderr %q)", tc.name, code, tc.code, stderr)
		}
		if !strings.HasPrefix(stderr, tc.line) || strings.Count(stderr, "f3d:") != 1 || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%s: stderr %q, want one line starting %q", tc.name, stderr, tc.line)
		}
	}
}
