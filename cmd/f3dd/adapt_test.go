package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/model"
	"repro/internal/parloop"
	"repro/internal/sched"
)

var update = flag.Bool("update", false, "rewrite the golden files from current output")

// TestAdaptiveJobOverHTTP is the end-to-end adaptive path: an adaptive
// submission over HTTP, and the controller's state served back from
// GET /jobs/{id}/adapt. The job's measurements stay inside its own
// controller: a later job with the same parallelism M is granted exactly
// the plateau rule's processors.
func TestAdaptiveJobOverHTTP(t *testing.T) {
	const m = 6 // plateaus 1, 2, 3 under 4 processors: the grant is 3
	ts := newTestServer(t, sched.Config{Procs: 4}, serverConfig{})

	var st sched.JobStatus
	code := ts.do("POST", "/jobs", map[string]any{
		"kind": "adaptive", "name": "rag", "parallelism": m,
		"steps": 8, "work_scale": 150, "seed": 7,
	}, &st)
	if code != http.StatusAccepted {
		t.Fatalf("submit adaptive = %d", code)
	}
	ts.waitState(st.ID, sched.StateDone)

	var ja adapt.JobAdapt
	if code := ts.do("GET", fmt.Sprintf("/jobs/%d/adapt", st.ID), nil, &ja); code != http.StatusOK {
		t.Fatalf("GET /jobs/%d/adapt = %d", st.ID, code)
	}
	if ja.ID != st.ID || ja.Name != "rag" || ja.State != "done" {
		t.Fatalf("adapt identity: %+v", ja)
	}
	if len(ja.Loops) != 1 {
		t.Fatalf("%d adaptive loops, want 1", len(ja.Loops))
	}
	loop := ja.Loops[0]
	if loop.Step != 8 {
		t.Fatalf("controller saw %d steps, want 8", loop.Step)
	}
	if loop.Choice.Chunk < 1 || loop.Choice.Workers < 1 || loop.Choice.Workers > 4 {
		t.Fatalf("final choice %v outside envelope", loop.Choice)
	}
	if len(loop.Decisions) == 0 {
		t.Fatal("decision log empty")
	}

	// A non-adaptive job answers 404 from /adapt, as does an unknown
	// job ID. Its 2e6 cycles clear the bar of two model.ForkCycles, so it
	// requests all m units; work_scale keeps the spin at 1 000 iterations.
	var st2 sched.JobStatus
	if code := ts.do("POST", "/jobs", map[string]any{
		"kind": "synthetic", "parallelism": m, "steps": 2, "work_cycles": 2e6, "work_scale": 5e-4,
	}, &st2); code != http.StatusAccepted {
		t.Fatalf("submit synthetic = %d", code)
	}
	if got, want := ts.waitState(st2.ID, sched.StateDone).Granted, sched.PlateauGrant(m, 4); got != want {
		t.Fatalf("synthetic M=%d granted %d, want PlateauGrant(%d, 4) = %d", m, got, m, want)
	}
	if code := ts.do("GET", fmt.Sprintf("/jobs/%d/adapt", st2.ID), nil, nil); code != http.StatusNotFound {
		t.Fatalf("GET /adapt for non-adaptive job = %d, want 404", code)
	}
	if code := ts.do("GET", "/jobs/99999/adapt", nil, nil); code != http.StatusNotFound {
		t.Fatalf("GET /adapt for unknown job = %d, want 404", code)
	}
}

// TestAdaptiveNeedsNoFlag: there is no -adapt switch — a daemon built
// from the zero serverConfig accepts the kind and runs it to completion.
func TestAdaptiveNeedsNoFlag(t *testing.T) {
	ts := newTestServer(t, sched.Config{Procs: 2}, serverConfig{})
	var st sched.JobStatus
	code := ts.do("POST", "/jobs", map[string]any{"kind": "adaptive", "parallelism": 16, "steps": 5, "work_scale": 1}, &st)
	if code != http.StatusAccepted {
		t.Fatalf("adaptive submit = %d, want 202", code)
	}
	ts.waitState(st.ID, sched.StateDone)
}

// TestAdaptiveUnderSmallerGrant: while another job holds processors an
// adaptive job is granted fewer than its controller's Procs, so every
// step runs min(pick, grant) workers. It still completes one controller
// observation per step.
func TestAdaptiveUnderSmallerGrant(t *testing.T) {
	ts := newTestServer(t, sched.Config{Procs: 4}, serverConfig{})
	var hold, st sched.JobStatus
	if code := ts.do("POST", "/jobs", map[string]any{
		"kind": "synthetic", "name": "hold", "parallelism": 2, "steps": 1_000_000,
		"work_cycles": 4e5, "work_scale": 0.025, // clears the two-fork bar, spins 1e4
	}, &hold); code != http.StatusAccepted {
		t.Fatalf("submit holder = %d", code)
	}
	ts.waitState(hold.ID, sched.StateRunning)

	const steps = 10
	if code := ts.do("POST", "/jobs", map[string]any{
		"kind": "adaptive", "parallelism": 64, "steps": steps, "work_scale": 150, "seed": 7,
	}, &st); code != http.StatusAccepted {
		t.Fatalf("submit adaptive = %d", code)
	}
	done := ts.waitState(st.ID, sched.StateDone)
	if code := ts.do("POST", fmt.Sprintf("/jobs/%d/cancel", hold.ID), nil, nil); code != http.StatusOK {
		t.Fatalf("cancel holder = %d", code)
	}
	if done.Granted != 2 {
		t.Fatalf("adaptive job granted %d beside the holder, want 2", done.Granted)
	}
	job, ok := ts.s.Submitted(st.ID).(*adapt.LoopJob)
	if !ok {
		t.Fatal("adaptive submission is not a LoopJob")
	}
	if got := job.Controller().Status().Step; got != steps {
		t.Fatalf("controller saw %d steps, want %d", got, steps)
	}
}

// scriptedAdaptive stands a pre-driven controller in for a LoopJob's
// live one: what /adapt reads off the submitted job, made reproducible.
type scriptedAdaptive struct {
	sched.Job
	ctrl *adapt.Controller
}

func (j scriptedAdaptive) Controller() *adapt.Controller { return j.ctrl }

// TestAdaptGoldenJSON pins the exact GET /jobs/{id}/adapt wire format
// against testdata/adapt.golden (refresh with -update). The controller
// is driven by the deterministic simulator, so the body — decision log,
// scores and all — is reproducible bit for bit; tracetool's adapt
// subcommand renders this same shape.
func TestAdaptGoldenJSON(t *testing.T) {
	s := sched.New(sched.Config{Procs: 4})
	defer s.Close()
	sv := newServer(s, serverConfig{})
	hs := httptest.NewServer(sv)
	defer hs.Close()

	// The loop state comes from a sim-driven controller: genuine policy
	// decisions, bit-reproducible output.
	cfg := adapt.Config{Procs: 4, M: 24, Chunks: []int{1, 8}}
	ctrl := adapt.New("rag-loop", adapt.Choice{Sched: parloop.Static, Chunk: 1, Workers: 4}, cfg)
	adapt.RunSim(adapt.Sim{W: adapt.Ragged(24, 800, 3, 5)}, ctrl, 160)

	// A real (trivial) job anchors the ID, name and terminal state, and
	// carries the controller the way a LoopJob does.
	p := model.StepProfile{Loops: []model.LoopClass{{
		Name: "loop", WorkCycles: 100, Parallelism: 8, SyncEvents: 1,
	}}}
	h, err := s.Submit(scriptedAdaptive{sched.NewSyntheticJob("golden", p, 1, 1), ctrl})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	resp, err := hs.Client().Get(fmt.Sprintf("%s/jobs/%d/adapt", hs.URL, h.ID()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /adapt = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "adapt.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, body, 0o644); err != nil {
			t.Fatalf("update %s: %v", golden, err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read %s (run with -update to create): %v", golden, err)
	}
	if string(body) != string(want) {
		t.Fatalf("GET /adapt drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, body, want)
	}
}
