package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/autopar/pipeline"
	"repro/internal/f3d"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/obs/serve"
	"repro/internal/sched"
)

// -plan-out makes TestPlanE2E write the plan it derived as a JSON
// artifact, so CI can attach the machine-checkable rationale to the
// run.
var planOut = flag.String("plan-out", "", "write the E2E-derived plan JSON to this file")

var update = flag.Bool("update", false, "rewrite the golden files from current output")

// serialResiduals is the conformance reference: the residual history
// of a serial, unshaped solver on the same case.
func serialResiduals(t *testing.T, j, k, l, steps int, pulse float64) []float64 {
	t.Helper()
	s, err := f3d.NewCacheSolver(f3d.DefaultConfig(grid.Single(j, k, l)), f3d.CacheOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	f3d.InitPulse(s, pulse)
	res := make([]float64, steps)
	for i := range res {
		res[i] = s.Step().Residual
	}
	return res
}

// TestPlanFeatureDetect: daemons without -autopar answer 404 from
// /plan (clients feature-detect) and reject plan_from
// submissions up front.
func TestPlanFeatureDetect(t *testing.T) {
	ts := newTestServer(t, sched.Config{Procs: 2}, serverConfig{})
	var st sched.JobStatus
	if code := ts.do("POST", "/jobs", map[string]any{
		"kind": "f3d", "name": "plain", "dims": "6x5x4", "steps": 1,
	}, &st); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	ts.waitState(st.ID, sched.StateDone)
	if code := ts.do("GET", fmt.Sprintf("/jobs/%d/plan", st.ID), nil, nil); code != http.StatusNotFound {
		t.Fatalf("GET /plan without -autopar = %d, want 404", code)
	}
	if code := ts.do("GET", "/jobs/99999/plan", nil, nil); code != http.StatusNotFound {
		t.Fatalf("GET /plan for unknown job = %d, want 404", code)
	}
	if code := ts.do("POST", "/jobs", map[string]any{
		"kind": "f3d", "plan_from": st.ID,
	}, nil); code != http.StatusBadRequest {
		t.Fatalf("plan_from without -autopar = %d, want 400", code)
	}
}

// TestPlanNeedsTracedEvidence: -autopar without tracing enabled has
// no evidence to plan from — /plan answers 409 and a plan_from rerun
// is refused, rather than silently planning from nothing.
func TestPlanNeedsTracedEvidence(t *testing.T) {
	ts := newTestServer(t, sched.Config{Procs: 2}, serverConfig{autopar: true})
	var st sched.JobStatus
	if code := ts.do("POST", "/jobs", map[string]any{
		"kind": "f3d", "name": "untraced", "dims": "6x5x4", "steps": 1,
	}, &st); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	ts.waitState(st.ID, sched.StateDone)
	if code := ts.do("GET", fmt.Sprintf("/jobs/%d/plan", st.ID), nil, nil); code != http.StatusConflict {
		t.Fatalf("GET /plan with tracing off = %d, want 409", code)
	}
	if code := ts.do("POST", "/jobs", map[string]any{
		"kind": "f3d", "plan_from": st.ID,
	}, nil); code != http.StatusBadRequest {
		t.Fatalf("plan_from with tracing off = %d, want 400", code)
	}
}

// TestPlanGoldenJSON pins the exact GET /jobs/{id}/plan wire format
// against testdata/plan.golden (refresh with -update). The plan is
// stored explicitly so the body is reproducible bit for bit;
// tracetool's plan subcommand renders this same shape.
func TestPlanGoldenJSON(t *testing.T) {
	s := sched.New(sched.Config{Procs: 4})
	defer s.Close()
	sv := newServer(s, serverConfig{autopar: true})
	hs := httptest.NewServer(sv)
	defer hs.Close()

	// A real f3d job anchors the ID, name and terminal state.
	job, err := sv.buildF3D(&submitRequest{Name: "golden", Dims: "6x5x4", Steps: 1, Pulse: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(t.Context()); err != nil {
		t.Fatal(err)
	}

	// One decision of every kind, with the rationale vocabulary the
	// planner emits.
	plan := &pipeline.Plan{
		Schema: pipeline.Schema,
		Source: "golden",
		Procs:  4,
		Loops: []pipeline.LoopPlan{
			{Loop: "golden/sweep-jk", Action: pipeline.Parallelize, Rationale: []pipeline.Fact{
				{Kind: pipeline.FactBudget, Loop: "golden/sweep-jk", Detail: "work per sync clears Table 1 minimum", Value: 3.2},
			}},
			{Loop: "golden/sweep-l", Action: pipeline.Merge, Group: "step", Rationale: []pipeline.Fact{
				{Kind: pipeline.FactGroupBudget, Loop: "golden/sweep-l", Detail: "fused region clears the budget the loop misses alone", Value: 1.4},
			}},
			{Loop: "golden/bc", Action: pipeline.Serial, Rationale: []pipeline.Fact{
				{Kind: pipeline.FactBudget, Loop: "golden/bc", Detail: "too cheap to amortize a sync", Value: 0.05},
			}},
		},
	}
	// Installed as the job's derived plan: the handler serves what the
	// job carries, never re-deriving once a plan is there.
	job.(*planJob).plan = plan

	resp, err := hs.Client().Get(fmt.Sprintf("%s/jobs/%d/plan", hs.URL, h.ID()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /plan = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "plan.golden")
	if *update {
		if err := os.WriteFile(golden, body, 0o644); err != nil {
			t.Fatalf("update %s: %v", golden, err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read %s (run with -update to create): %v", golden, err)
	}
	if string(body) != string(want) {
		t.Fatalf("GET /plan drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, body, want)
	}
}

// TestPlanE2E is the acceptance path for the auto-parallelization
// pipeline: a phase-traced run, a plan derived from its evidence over
// HTTP, a plan_from rerun with the plan lowered onto the solver's step
// shape, and the proof that the applied plan (which demotes at least
// one loop from the default all-parallel structure at this scale)
// reproduces the serial reference's residual history bitwise.
func TestPlanE2E(t *testing.T) {
	tr := obs.NewTracer(1<<16, nil)
	tr.Enable()
	// The sync cost is pinned absurdly high (the -autopar-sync-cost
	// knob) so the Table 1 budget verdict is deterministic — no loop
	// at this scale can amortize a 1e9-cycle barrier, whatever the
	// machine or instrumentation (-race) does to the timings.
	ts := newTestServer(t, sched.Config{Procs: 3, Tracer: tr},
		serverConfig{autopar: true, autoparSyncCost: 1e9})

	const (
		j, k, l = 15, 12, 10 // M = 8: the probe runs on the whole budget
		steps   = 4
		pulse   = 0.01
	)
	var st sched.JobStatus
	if code := ts.do("POST", "/jobs", map[string]any{
		"kind": "f3d", "name": "probe", "dims": fmt.Sprintf("%dx%dx%d", j, k, l),
		"steps": steps, "pulse": pulse,
	}, &st); code != http.StatusAccepted {
		t.Fatalf("submit probe = %d", code)
	}
	ts.waitState(st.ID, sched.StateDone)

	var jp pipeline.JobPlan
	if code := ts.do("GET", fmt.Sprintf("/jobs/%d/plan", st.ID), nil, &jp); code != http.StatusOK {
		t.Fatalf("GET /plan = %d", code)
	}
	if jp.ID != st.ID || jp.Name != "probe" || jp.State != "done" || jp.Plan == nil {
		t.Fatalf("plan identity: %+v", jp)
	}
	// The default shape phase-traces rhs and both sweeps; bc stays
	// serial and emits nothing, so exactly three loops are planned.
	if len(jp.Plan.Loops) != 3 {
		t.Fatalf("plan has %d loops, want rhs, sweep-jk, sweep-l: %+v", len(jp.Plan.Loops), jp.Plan.Loops)
	}
	demoted := 0
	for _, lp := range jp.Plan.Loops {
		if len(lp.Rationale) == 0 {
			t.Errorf("loop %q decided %q with no rationale", lp.Loop, lp.Action)
		}
		if lp.Action != pipeline.Parallelize {
			demoted++
		}
	}
	// Under the pinned sync cost the budget demotes every traced loop
	// from the default all-parallel structure — the changed decisions
	// the rerun applies.
	if demoted == 0 {
		t.Fatalf("plan changed no loop's decision: %+v", jp.Plan.Loops)
	}
	if *planOut != "" {
		body, err := json.MarshalIndent(jp, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(*planOut, body, 0o644); err != nil {
			t.Fatalf("write -plan-out: %v", err)
		}
	}

	// Rerun the case under the derived plan; dims/steps/pulse are
	// inherited from the source job.
	var st2 sched.JobStatus
	if code := ts.do("POST", "/jobs", map[string]any{
		"kind": "f3d", "name": "replay", "plan_from": st.ID,
	}, &st2); code != http.StatusAccepted {
		t.Fatalf("submit replay = %d", code)
	}
	ts.waitState(st2.ID, sched.StateDone)

	replay, ok := ts.s.Submitted(st2.ID).(*planJob)
	if !ok {
		t.Fatal("replay job is not a plan job")
	}
	if got, def := replay.Shape().Load(), f3d.DefaultShape(); got == def {
		t.Errorf("applied plan left the default step shape %+v", got)
	}

	// An explicit steps is the caller's, even when it equals the
	// default of 10: only an omitted one is inherited.
	var st3 sched.JobStatus
	if code := ts.do("POST", "/jobs", map[string]any{
		"kind": "f3d", "name": "replay10", "plan_from": st.ID, "steps": 10,
	}, &st3); code != http.StatusAccepted {
		t.Fatalf("submit replay10 = %d", code)
	}
	ts.waitState(st3.ID, sched.StateDone)

	// Headline conformance: the traced probe and both plan-shaped
	// replays reproduce the serial reference bitwise.
	ref := serialResiduals(t, j, k, l, 10, pulse)
	for _, c := range []struct {
		name  string
		id    uint64
		steps int
	}{{"probe", st.ID, steps}, {"replay", st2.ID, steps}, {"replay10", st3.ID, 10}} {
		job, ok := ts.s.Submitted(c.id).(*planJob)
		if !ok {
			t.Fatalf("%s job is not a plan job", c.name)
		}
		got := job.History().Residuals
		if len(got) != c.steps {
			t.Fatalf("%s ran %d steps, want %d", c.name, len(got), c.steps)
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Errorf("%s step %d: residual %.17g, serial reference %.17g", c.name, i, got[i], ref[i])
			}
		}
	}
}

// TestPlanIsKeptOnTheJob pins the plan-serving guarantees at the HTTP
// surface: a plan, once derived, is a stable artifact of the
// job — byte-identical after the trace ring is reset — while a failed
// derivation is not remembered, so evidence arriving later still yields
// a plan; and the state is per job, reached only through the
// scheduler's table.
func TestPlanIsKeptOnTheJob(t *testing.T) {
	ts := newTestServer(t, sched.Config{Procs: 2},
		serverConfig{autopar: true, autoparSyncCost: 1e9})
	submit := func(body map[string]any) uint64 {
		t.Helper()
		var st sched.JobStatus
		if code := ts.do("POST", "/jobs", body, &st); code != http.StatusAccepted {
			t.Fatalf("submit %v = %d", body, code)
		}
		return st.ID
	}
	// The smallest probe whose work pays for the second processor, so
	// its regions run parallel and reach the trace.
	probe := map[string]any{"kind": "f3d", "name": "probe", "dims": "13x11x9", "steps": 2, "pulse": 0.01}
	plan := func(id uint64) (int, string) { return ts.get(fmt.Sprintf("/jobs/%d/plan", id)) }

	// Under -autopar, only f3d jobs carry plan state.
	other := submit(map[string]any{"kind": "euler", "points": 64, "steps": 1})
	ts.waitState(other, sched.StateDone)
	if code, _ := plan(other); code != http.StatusNotFound {
		t.Fatalf("GET /plan for a euler job = %d, want 404", code)
	}
	// Tracing is off: nothing to plan from yet. The first probe runs
	// until it is canceled, so its evidence can arrive later.
	long := maps.Clone(probe)
	long["steps"] = maxSteps
	first := submit(long)
	ts.waitState(first, sched.StateRunning)
	if code, _ := plan(first); code != http.StatusConflict {
		t.Fatalf("GET /plan with tracing off = %d, want 409", code)
	}

	// Evidence arrives once tracing is on: the earlier 409 was not
	// cached.
	if code := ts.do("POST", "/trace/enable", nil, nil); code != http.StatusOK {
		t.Fatalf("POST /trace/enable = %d", code)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		code, body := plan(first)
		if code == http.StatusOK {
			break
		}
		if code != http.StatusConflict || time.Now().After(deadline) {
			t.Fatalf("GET /plan after evidence = %d: %s", code, body)
		}
	}
	if code := ts.do("POST", fmt.Sprintf("/jobs/%d/cancel", first), nil, nil); code != http.StatusOK {
		t.Fatalf("cancel = %d", code)
	}
	ts.waitState(first, sched.StateCanceled)
	_, before := plan(first)
	second := submit(probe)
	ts.waitState(second, sched.StateDone)

	// Reset the ring: the derived plan survives on the job, byte for
	// byte; the job whose plan was never derived has lost its evidence.
	var status serve.TraceStatus
	if code := ts.do("POST", "/trace/enable", map[string]any{"reset": true}, &status); code != http.StatusOK || status.Events != 0 {
		t.Fatalf("POST /trace/enable reset = %d, %+v", code, status)
	}
	if code, after := plan(first); code != http.StatusOK || after != before {
		t.Fatalf("GET /plan after trace reset = %d, body changed:\n--- before ---\n%s\n--- after ---\n%s", code, before, after)
	}
	if code, _ := plan(second); code != http.StatusConflict {
		t.Fatalf("GET /plan of the underived job after reset = %d, want 409", code)
	}
	// plan_from reads the same kept plan.
	if code := ts.do("POST", "/jobs", map[string]any{"kind": "f3d", "plan_from": first, "steps": 2}, nil); code != http.StatusAccepted {
		t.Fatalf("plan_from the kept plan = %d", code)
	}
}

// TestPlanSameNameJobsKeepTheirOwnEvidence: two unnamed jobs are both
// named "f3d", yet each is planned from its own traced run. The same
// small case is planned on a fresh daemon and on one where a larger
// same-named job ran first; the plans must agree. The larger job runs
// on all 4 processors and the small one (M = 9) on 3, so a plan mixing
// both runs would report 4. The pinned sync cost makes every action
// deterministic (serial), whatever the host's timings.
func TestPlanSameNameJobsKeepTheirOwnEvidence(t *testing.T) {
	small := map[string]any{"kind": "f3d", "dims": "13x12x11", "steps": 2, "pulse": 0.01}
	large := map[string]any{"kind": "f3d", "dims": "33x27x25", "steps": 2, "pulse": 0.01}
	planAfter := func(jobs ...map[string]any) *pipeline.Plan {
		t.Helper()
		tr := obs.NewTracer(1<<16, nil)
		tr.Enable()
		ts := newTestServer(t, sched.Config{Procs: 4, Tracer: tr},
			serverConfig{autopar: true, autoparSyncCost: 1e9})
		var st sched.JobStatus
		for _, body := range jobs {
			if code := ts.do("POST", "/jobs", body, &st); code != http.StatusAccepted {
				t.Fatalf("submit %v = %d", body, code)
			}
			ts.waitState(st.ID, sched.StateDone)
		}
		var jp pipeline.JobPlan
		if code := ts.do("GET", fmt.Sprintf("/jobs/%d/plan", st.ID), nil, &jp); code != http.StatusOK {
			t.Fatalf("GET /plan = %d", code)
		}
		if jp.Name != "f3d" {
			t.Fatalf("job name %q, want the default f3d", jp.Name)
		}
		return jp.Plan
	}
	// The plan's shape, with the per-job prefix and the timed values
	// left out.
	shape := func(p *pipeline.Plan) string {
		var loops []string
		for _, lp := range p.Loops {
			loops = append(loops, fmt.Sprintf("%s=%s", path.Base(lp.Loop), lp.Action))
		}
		slices.Sort(loops)
		return fmt.Sprintf("procs %d: %s", p.Procs, strings.Join(loops, " "))
	}
	alone := shape(planAfter(small))
	if !strings.HasPrefix(alone, "procs 3:") {
		t.Fatalf("small job alone planned %q, want its 3-processor grant", alone)
	}
	if after := shape(planAfter(large, small)); after != alone {
		t.Fatalf("plan after a same-named job = %q, alone = %q", after, alone)
	}
}

// TestPlanPrefixesAreUnique: concurrent -autopar submissions under one
// name each get a trace prefix of their own.
func TestPlanPrefixesAreUnique(t *testing.T) {
	s := sched.New(sched.Config{Procs: 2})
	defer s.Close()
	sv := newServer(s, serverConfig{autopar: true})
	const goroutines, each = 8, 4
	prefixes := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := range prefixes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range each {
				job, err := sv.buildF3D(&submitRequest{Name: "same", Dims: "6x5x4", Steps: 1})
				if err != nil {
					t.Error(err)
					return
				}
				prefixes[g] = append(prefixes[g], job.(*planJob).prefix)
			}
		}()
	}
	wg.Wait()
	seen := map[string]bool{}
	for _, ps := range prefixes {
		for _, p := range ps {
			if seen[p] || !strings.HasPrefix(p, "same#") {
				t.Fatalf("prefix %q repeated or misnamed", p)
			}
			seen[p] = true
		}
	}
	if len(seen) != goroutines*each {
		t.Fatalf("%d distinct prefixes, want %d", len(seen), goroutines*each)
	}
}
