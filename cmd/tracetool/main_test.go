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
	writeTrace(t, trace, []int{1, 5, 8}, time.Millisecond)

	var out, errb bytes.Buffer
	code := run([]string{"analyze", trace}, nil, &out, &errb)
	if code != 0 {
		t.Fatalf("analyze exit %d, stderr: %s", code, errb.String())
	}
	text := out.String()
	for _, want := range []string{"zone", "stair-step plateaus", "wall-time attribution", "ranked profile"} {
		if !strings.Contains(text, want) {
			t.Errorf("analyze output missing %q:\n%s", want, text)
		}
	}

	// -json prints the report itself, stamped with -label.
	out.Reset()
	if code := run([]string{"analyze", "-label", "t", "-json", trace}, nil, &out, &errb); code != 0 {
		t.Fatalf("analyze -json exit %d", code)
	}
	var rep analyze.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("-json output: %v", err)
	}
	if rep.Label != "t" || len(rep.Loops) != 1 || rep.Loops[0].Units != 15 {
		t.Errorf("report = label %q, %d loops, want t and one loop of 15 units", rep.Label, len(rep.Loops))
	}

	// -json redirected to a file is the report file: there is no -o.
	if code := run([]string{"analyze", "-o", filepath.Join(dir, "r.json"), trace}, nil, &out, &errb); code != 2 {
		t.Errorf("analyze -o exit %d, want 2 (unknown flag)", code)
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

func TestUnknownSubcommand(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"frobnicate"}, nil, &out, &errb); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if code := run(nil, nil, &out, &errb); code != 2 {
		t.Errorf("no-arg exit %d, want 2", code)
	}
	if code := run([]string{"diff", "a.json", "b.json"}, nil, &out, &errb); code != 2 {
		t.Errorf("retired diff subcommand exit %d, want 2", code)
	}
}
