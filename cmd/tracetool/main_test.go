package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

// writeTrace dumps a synthetic stair-step trace as JSONL.
func writeTrace(t *testing.T, path string, teamSizes []int, unitDur time.Duration) {
	t.Helper()
	start := time.Date(2001, 9, 1, 0, 0, 0, 0, time.UTC)
	events := analyze.StairStepTrace("zone", 15, teamSizes, unitDur, 100*time.Microsecond, start)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeCommand(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	report := filepath.Join(dir, "report.json")
	writeTrace(t, trace, []int{1, 5, 8}, time.Millisecond)

	var out, errb bytes.Buffer
	code := run([]string{"analyze", "-label", "t", "-o", report, trace}, nil, &out, &errb)
	if code != 0 {
		t.Fatalf("analyze exit %d, stderr: %s", code, errb.String())
	}
	text := out.String()
	for _, want := range []string{"zone", "stair-step plateaus", "wall-time attribution", "ranked profile"} {
		if !strings.Contains(text, want) {
			t.Errorf("analyze output missing %q:\n%s", want, text)
		}
	}

	rep, err := loadReport(report)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Label != "t" || len(rep.Loops) != 1 || rep.Loops[0].Units != 15 {
		t.Errorf("report = label %q, %d loops", rep.Label, len(rep.Loops))
	}

	// -json prints the report itself.
	out.Reset()
	if code := run([]string{"analyze", "-json", trace}, nil, &out, &errb); code != 0 {
		t.Fatalf("analyze -json exit %d", code)
	}
	var rep2 analyze.Report
	if err := json.Unmarshal(out.Bytes(), &rep2); err != nil {
		t.Fatalf("-json output: %v", err)
	}

	// Stdin works via "-".
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out.Reset()
	if code := run([]string{"analyze", "-"}, f, &out, &errb); code != 0 {
		t.Fatalf("analyze - exit %d", code)
	}
}

func TestAnalyzeCommandTruncatedWarning(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	start := time.Date(2001, 9, 1, 0, 0, 0, 0, time.UTC)
	events := analyze.StairStepTrace("zone", 15, []int{5}, time.Millisecond, 0, start)
	events = append([]obs.Event{obs.DropMarker(1, 99, start)}, events...)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(trace, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errb bytes.Buffer
	if code := run([]string{"analyze", trace}, nil, &out, &errb); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out.String(), "99 events lost") {
		t.Errorf("no truncation warning in:\n%s", out.String())
	}
}

func TestConvertCommand(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	writeTrace(t, trace, []int{5}, time.Millisecond)

	var out, errb bytes.Buffer
	if code := run([]string{"convert", trace}, nil, &out, &errb); code != 0 {
		t.Fatalf("convert exit %d: %s", code, errb.String())
	}
	var ct map[string]any
	if err := json.Unmarshal(out.Bytes(), &ct); err != nil {
		t.Fatalf("convert output: %v", err)
	}
	if _, ok := ct["traceEvents"].([]any); !ok {
		t.Errorf("convert output has no traceEvents array: %v", ct)
	}

	chromePath := filepath.Join(dir, "chrome.json")
	if code := run([]string{"convert", "-o", chromePath, trace}, nil, &out, &errb); code != 0 {
		t.Fatalf("convert -o exit %d: %s", code, errb.String())
	}
	blob, err := os.ReadFile(chromePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, out.Bytes()) {
		t.Error("convert -o wrote other bytes than convert to stdout")
	}

	// The format is no longer a choice.
	if code := run([]string{"convert", "-format", "chrome", trace}, nil, &out, &errb); code != 2 {
		t.Errorf("-format exit %d, want 2 (unknown flag)", code)
	}
}

func TestDiffCommand(t *testing.T) {
	dir := t.TempDir()
	goodTrace := filepath.Join(dir, "good.jsonl")
	badTrace := filepath.Join(dir, "bad.jsonl")
	writeTrace(t, goodTrace, []int{8}, time.Millisecond)
	writeTrace(t, badTrace, []int{5}, time.Microsecond)

	goodRep := filepath.Join(dir, "good.json")
	badRep := filepath.Join(dir, "bad.json")
	var out, errb bytes.Buffer
	if code := run([]string{"analyze", "-o", goodRep, goodTrace}, nil, &out, &errb); code != 0 {
		t.Fatal("analyze good failed")
	}
	if code := run([]string{"analyze", "-o", badRep, badTrace}, nil, &out, &errb); code != 0 {
		t.Fatal("analyze bad failed")
	}

	// Same report: no regressions, exit 0.
	out.Reset()
	if code := run([]string{"diff", goodRep, goodRep}, nil, &out, &errb); code != 0 {
		t.Errorf("self-diff exit %d, output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "no regressions") {
		t.Errorf("self-diff output:\n%s", out.String())
	}

	// Regressed report: exit 1 and a readable summary.
	out.Reset()
	if code := run([]string{"diff", goodRep, badRep}, nil, &out, &errb); code != 1 {
		t.Errorf("regression diff exit %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "regression") || !strings.Contains(out.String(), "achieved_speedup") {
		t.Errorf("regression diff output:\n%s", out.String())
	}

	if code := run([]string{"diff", goodRep}, nil, &out, &errb); code != 2 {
		t.Errorf("missing arg exit %d, want 2", code)
	}
	if code := run([]string{"diff", goodRep, filepath.Join(dir, "nope.json")}, nil, &out, &errb); code != 2 {
		t.Errorf("missing file exit %d, want 2", code)
	}
}

func TestUnknownSubcommand(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"frobnicate"}, nil, &out, &errb); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if code := run(nil, nil, &out, &errb); code != 2 {
		t.Errorf("no-arg exit %d, want 2", code)
	}
}
