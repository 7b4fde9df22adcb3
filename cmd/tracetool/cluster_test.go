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

// writeFleetTrace writes one lockstep step's merged timeline as JSONL:
// a coordinator wall span plus per-worker rpc/compute spans
// (milliseconds). With openWall true the coordinator wall is shorter
// than the slowest RPC, so the attribution identity cannot close.
func writeFleetTrace(t *testing.T, path string, openWall bool) {
	t.Helper()
	base := time.Unix(0, 0)
	mk := func(kind obs.Kind, node string, ms int64) obs.Event {
		return obs.Event{Kind: kind, Name: "job", Worker: -1, Node: node,
			Trace: "job#1", Epoch: 0, At: base, Dur: time.Duration(ms) * time.Millisecond}
	}
	wall := int64(40)
	if openWall {
		wall = 5
	}
	events := []obs.Event{
		mk(obs.KindShardStep, "coord", wall),
		mk(obs.KindStepRPC, "w01", 10), mk(obs.KindShardStep, "w01", 8),
		mk(obs.KindStepRPC, "w02", 30), mk(obs.KindShardStep, "w02", 26),
	}
	var buf bytes.Buffer
	if err := obs.WriteEventsJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestClusterCommand(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "fleet.jsonl")
	report := filepath.Join(dir, "report.json")
	writeFleetTrace(t, trace, false)

	var out, errb bytes.Buffer
	code := run([]string{"cluster", "-o", report, trace}, nil, &out, &errb)
	if code != 0 {
		t.Fatalf("cluster exit %d, stderr: %s\nstdout: %s", code, errb.String(), out.String())
	}
	text := out.String()
	for _, want := range []string{"job#1", "exchange+barrier", "straggler", "w02"} {
		if !strings.Contains(text, want) {
			t.Errorf("cluster output missing %q:\n%s", want, text)
		}
	}

	b, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep analyze.ClusterReport
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("-o report: %v", err)
	}
	if !rep.Closed || len(rep.Solves) != 1 || rep.Solves[0].Steps[0].Straggler != "w02" {
		t.Errorf("report = closed %v, %d solves, straggler %q",
			rep.Closed, len(rep.Solves), rep.Solves[0].Steps[0].Straggler)
	}

	// -json prints the report itself.
	out.Reset()
	if code := run([]string{"cluster", "-json", trace}, nil, &out, &errb); code != 0 {
		t.Fatalf("cluster -json exit %d", code)
	}
	var rep2 analyze.ClusterReport
	if err := json.Unmarshal(out.Bytes(), &rep2); err != nil {
		t.Fatalf("-json output: %v", err)
	}
}

// TestClusterCommandClosureFailure: a timeline whose slowest RPC
// exceeds the coordinator wall cannot close the identity — exit 1, the
// CI gate.
func TestClusterCommandClosureFailure(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "open.jsonl")
	writeFleetTrace(t, trace, true)

	var out, errb bytes.Buffer
	code := run([]string{"cluster", trace}, nil, &out, &errb)
	if code != 1 {
		t.Fatalf("cluster on an open timeline exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "ATTRIBUTION OPEN") {
		t.Errorf("no closure diagnostic in output:\n%s", out.String())
	}
}

// TestClusterCommandNameTagging: NAME=path tags untagged events so
// bare single-daemon /trace dumps still land in a lane.
func TestClusterCommandNameTagging(t *testing.T) {
	dir := t.TempDir()
	base := time.Unix(0, 0)
	coordPath := filepath.Join(dir, "coord.jsonl")
	workerPath := filepath.Join(dir, "w01.jsonl")

	write := func(path string, events []obs.Event) {
		var buf bytes.Buffer
		if err := obs.WriteEventsJSONL(&buf, events); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(coordPath, []obs.Event{
		{Kind: obs.KindShardStep, Name: "job", Worker: -1, Trace: "job#1", At: base, Dur: 40 * time.Millisecond},
		{Kind: obs.KindStepRPC, Name: "job", Worker: -1, Node: "w01", Trace: "job#1", At: base, Dur: 10 * time.Millisecond},
	})
	write(workerPath, []obs.Event{
		{Kind: obs.KindShardStep, Name: "job", Worker: -1, Trace: "job#1", At: base, Dur: 8 * time.Millisecond},
	})

	var out, errb bytes.Buffer
	code := run([]string{"cluster", "-json", "coord=" + coordPath, "w01=" + workerPath}, nil, &out, &errb)
	if code != 0 {
		t.Fatalf("cluster exit %d, stderr: %s", code, errb.String())
	}
	var rep analyze.ClusterReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Solves) != 1 || len(rep.Solves[0].Steps) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	st := rep.Solves[0].Steps[0]
	if len(st.Workers) != 1 || st.Workers[0].Node != "w01" || st.Workers[0].ComputeNs != int64(8*time.Millisecond) {
		t.Errorf("lane = %+v, want w01 with tagged compute span", st.Workers)
	}
	if !rep.Closed {
		t.Error("tagged timeline did not close")
	}
}

// TestClusterCommandErrors: bad inputs are tool errors (exit 2), not
// regressions.
func TestClusterCommandErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"cluster"}, nil, &out, &errb); code != 2 {
		t.Errorf("no args exit %d, want 2", code)
	}
	if code := run([]string{"cluster", "/nonexistent/x.jsonl"}, nil, &out, &errb); code != 2 {
		t.Errorf("missing file exit %d, want 2", code)
	}
}
