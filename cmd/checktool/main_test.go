package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunCleanRegistry: the shipped kernels pass a reduced matrix and
// the dependence scan, and the tool exits 0.
func TestRunCleanRegistry(t *testing.T) {
	var out, errw bytes.Buffer
	code := run(&out, &errw, []string{"-teams", "1,2,3", "-depworkers", "3"})
	if code != 0 {
		t.Fatalf("exit %d, stderr %q, stdout:\n%s", code, errw.String(), out.String())
	}
	s := out.String()
	for _, want := range []string{"conformance:", "0 failures", "dependences:", "0 races", "OK"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// TestRunSelftest: with -selftest the tool demonstrates the seeded
// dependence is caught by both engines and still exits 0.
func TestRunSelftest(t *testing.T) {
	var out, errw bytes.Buffer
	code := run(&out, &errw, []string{
		"-teams", "1,2", "-kernel", "saxpy", "-selftest",
	})
	if code != 0 {
		t.Fatalf("exit %d, stdout:\n%s", code, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "harness caught the seeded dependence") {
		t.Errorf("selftest harness line missing:\n%s", s)
	}
	if !strings.Contains(s, "checker flagged the seeded dependence") {
		t.Errorf("selftest checker line missing:\n%s", s)
	}
}

// TestRunKernelFilter: an unknown filter is a usage error; a matching
// one narrows the run.
func TestRunKernelFilter(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"-kernel", "no-such-kernel"}); code != 2 {
		t.Fatalf("unknown kernel filter: exit %d, want 2", code)
	}
	out.Reset()
	errw.Reset()
	code := run(&out, &errw, []string{"-teams", "2", "-kernel", "sum-int", "-deps=false", "-v"})
	if code != 0 {
		t.Fatalf("filtered run failed: %s", out.String())
	}
	if !strings.Contains(out.String(), "1 kernels") {
		t.Errorf("filter did not narrow to one kernel:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "kernel sum-int-exact") {
		t.Errorf("-v did not list the kernel:\n%s", out.String())
	}
}

// TestRunBadFlags: malformed lists are usage errors.
func TestRunBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-teams", "zero"},
		{"-teams", "0"},
		{"-teams", ""},
		{"-not-a-flag"},
	} {
		var out, errw bytes.Buffer
		if code := run(&out, &errw, args); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
}
