package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/sched"
)

// testServer wires a scheduler into the HTTP handler and gives the
// tests a tiny JSON client. Everything goes through real HTTP.
type testServer struct {
	t  *testing.T
	s  *sched.Scheduler
	sv *server
	ts *httptest.Server
}

func newTestServer(t *testing.T, cfg sched.Config, scfg serverConfig) *testServer {
	t.Helper()
	s := sched.New(cfg)
	sv := newServer(s, scfg)
	ts := httptest.NewServer(sv)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return &testServer{t: t, s: s, sv: sv, ts: ts}
}

// do sends a request and decodes the JSON response into out (if
// non-nil), returning the status code.
func (ts *testServer) do(method, path string, body, out any) int {
	ts.t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			ts.t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, ts.ts.URL+path, &buf)
	if err != nil {
		ts.t.Fatal(err)
	}
	resp, err := ts.ts.Client().Do(req)
	if err != nil {
		ts.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			ts.t.Fatalf("%s %s: decoding response: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

func (ts *testServer) metrics() sched.Metrics { return ts.s.Metrics() }

// waitState polls a job until it reaches the wanted state.
func (ts *testServer) waitState(id uint64, want sched.State) sched.JobStatus {
	ts.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st sched.JobStatus
		if code := ts.do("GET", fmt.Sprintf("/jobs/%d", id), nil, &st); code != http.StatusOK {
			ts.t.Fatalf("GET /jobs/%d = %d", id, code)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			ts.t.Fatalf("job %d: state %v, want %v", id, st.State, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func onPlateau(t *testing.T, m, p int) {
	t.Helper()
	if p < 1 {
		t.Fatalf("granted %d processors", p)
	}
	if p > 1 && (m+p-1)/p == (m+p-2)/(p-1) {
		t.Errorf("grant %d for M=%d is off-plateau: ceil(M/P) == ceil(M/(P-1))", p, m)
	}
}

// TestTwoConcurrentJobsShareTheBudget is the end-to-end acceptance
// test: two jobs submitted over HTTP run concurrently, each on a
// stair-step plateau of its parallelism, and the processors granted
// never exceed the budget.
func TestTwoConcurrentJobsShareTheBudget(t *testing.T) {
	const procs = 4
	ts := newTestServer(t, sched.Config{Procs: procs, QueueDepth: 8}, serverConfig{})

	// Each job: M = 6 (2e6 cycles clear the two-fork bar), a couple thousand
	// checkpointed steps of real spinning (1e5 iterations a step at
	// work_scale 0.05), so both are observably running at once. On 4 processors
	// the scheduler grants the first the plateau at 3 (ceil(6/3) = 2
	// sweeps; a 4th processor would buy nothing) and the second the
	// remaining 1.
	submit := func(name string) sched.JobStatus {
		var st sched.JobStatus
		code := ts.do("POST", "/jobs", map[string]any{
			"kind":        "synthetic",
			"name":        name,
			"parallelism": 6,
			"steps":       2000,
			"work_cycles": 2e6,
			"work_scale":  0.05,
		}, &st)
		if code != http.StatusAccepted {
			t.Fatalf("POST /jobs = %d", code)
		}
		return st
	}
	a, b := submit("a"), submit("b")

	// Both were dispatched at submission; poll until one listing shows
	// them running concurrently, granted processors summing to at most
	// the budget, each grant on a plateau.
	deadline := time.Now().Add(60 * time.Second)
	var jobs []sched.JobStatus
	for {
		if code := ts.do("GET", "/jobs", nil, &jobs); code != http.StatusOK {
			t.Fatalf("GET /jobs = %d", code)
		}
		if len(jobs) != 2 {
			t.Fatalf("listed %d jobs, want 2", len(jobs))
		}
		running := 0
		for _, st := range jobs {
			if st.State == sched.StateRunning {
				running++
			}
			if st.State.Terminal() {
				t.Fatalf("job %d (%s) reached %v before both jobs were seen running together",
					st.ID, st.Name, st.State)
			}
		}
		if running == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("jobs never observed running concurrently")
		}
		time.Sleep(time.Millisecond)
	}
	total := 0
	for _, st := range jobs {
		onPlateau(t, st.Requested, st.Granted)
		total += st.Granted
	}
	if total > procs {
		t.Fatalf("concurrent grants total %d, exceeds budget %d", total, procs)
	}
	if jobs[0].Granted != 3 || jobs[1].Granted != 1 {
		t.Errorf("grants (%d, %d), want plateau packing (3, 1)", jobs[0].Granted, jobs[1].Granted)
	}

	sa := ts.waitState(a.ID, sched.StateDone)
	sb := ts.waitState(b.ID, sched.StateDone)
	for _, st := range []sched.JobStatus{sa, sb} {
		onPlateau(t, st.Requested, st.Granted)
		if st.SyncEvents == 0 && st.Granted > 1 {
			t.Errorf("job %d finished with grant %d but no sync events", st.ID, st.Granted)
		}
	}

	m := ts.metrics()
	if m.MaxInUse > m.Procs {
		t.Errorf("max_in_use %d exceeds budget %d", m.MaxInUse, m.Procs)
	}
	if m.InUse+m.Free != m.Procs {
		t.Errorf("in_use %d + free %d != procs %d", m.InUse, m.Free, m.Procs)
	}
	if m.Completed != 2 || m.Running != 0 || m.Queued != 0 {
		t.Errorf("metrics after both done: %+v", m)
	}
}

// TestSolverJobKindsOverHTTP submits one f3d job and one euler job and
// sees both through to completion. Both are large enough for their work
// to pay for a fork, so each requests its whole loop-level parallelism.
func TestSolverJobKindsOverHTTP(t *testing.T) {
	ts := newTestServer(t, sched.Config{Procs: 3, QueueDepth: 8}, serverConfig{})

	var f3dJob, eulerJob sched.JobStatus
	if code := ts.do("POST", "/jobs", map[string]any{
		"kind": "f3d", "dims": "17x13x11", "steps": 2, "pulse": 0.05,
	}, &f3dJob); code != http.StatusAccepted {
		t.Fatalf("POST f3d job = %d", code)
	}
	if code := ts.do("POST", "/jobs", map[string]any{
		"kind": "euler", "points": 4096, "steps": 2,
	}, &eulerJob); code != http.StatusAccepted {
		t.Fatalf("POST euler job = %d", code)
	}
	if f3dJob.Requested != 11 {
		t.Errorf("f3d job requested %d, want the default shape's K−2 = 11", f3dJob.Requested)
	}
	if eulerJob.Requested != 4096 {
		t.Errorf("euler job requested %d, want points 4096", eulerJob.Requested)
	}
	st := ts.waitState(f3dJob.ID, sched.StateDone)
	if st.SyncEvents == 0 {
		t.Error("f3d job completed with no sync events")
	}
	ts.waitState(eulerJob.ID, sched.StateDone)
}

// TestBackpressureAndCancelOverHTTP fills the queue and checks the 429
// backpressure signal, then cancels through the API.
func TestBackpressureAndCancelOverHTTP(t *testing.T) {
	ts := newTestServer(t, sched.Config{Procs: 1, QueueDepth: 1}, serverConfig{})

	long := map[string]any{
		"kind": "synthetic", "parallelism": 1,
		"steps": maxSteps, "work_cycles": 1000000.0,
	}
	var running, queued sched.JobStatus
	if code := ts.do("POST", "/jobs", long, &running); code != http.StatusAccepted {
		t.Fatalf("first POST = %d", code)
	}
	ts.waitState(running.ID, sched.StateRunning)
	if code := ts.do("POST", "/jobs", long, &queued); code != http.StatusAccepted {
		t.Fatalf("second POST = %d", code)
	}
	var errBody map[string]string
	if code := ts.do("POST", "/jobs", long, &errBody); code != http.StatusTooManyRequests {
		t.Fatalf("third POST = %d, want 429 (queue full); body %v", code, errBody)
	}
	if errBody["error"] == "" {
		t.Error("429 response carried no error message")
	}

	var st sched.JobStatus
	if code := ts.do("POST", fmt.Sprintf("/jobs/%d/cancel", queued.ID), nil, &st); code != http.StatusOK {
		t.Fatalf("POST cancel queued job = %d", code)
	}
	ts.waitState(queued.ID, sched.StateCanceled)
	if code := ts.do("POST", fmt.Sprintf("/jobs/%d/cancel", running.ID), nil, &st); code != http.StatusOK {
		t.Fatalf("POST cancel running job = %d", code)
	}
	ts.waitState(running.ID, sched.StateCanceled)

	if m := ts.metrics(); m.Rejected != 1 || m.Canceled != 2 {
		t.Errorf("rejected %d canceled %d, want 1 and 2", m.Rejected, m.Canceled)
	}
}

func TestBadRequestsOverHTTP(t *testing.T) {
	ts := newTestServer(t, sched.Config{Procs: 1, QueueDepth: 1}, serverConfig{})

	cases := []struct {
		name string
		body map[string]any
	}{
		{"unknown kind", map[string]any{"kind": "fortran"}},
		{"unknown field", map[string]any{"kind": "synthetic", "bogus": 1}},
		{"bad steps", map[string]any{"kind": "synthetic", "steps": maxSteps + 1}},
		{"missing dims", map[string]any{"kind": "f3d"}},
		{"malformed dims", map[string]any{"kind": "f3d", "dims": "11x10"}},
		{"huge zone", map[string]any{"kind": "f3d", "dims": "128x128x128"}},
		{"zone without an interior", map[string]any{"kind": "f3d", "dims": "9x2x9"}},
		{"bad points", map[string]any{"kind": "euler", "points": maxPoints + 1}},
		// The trace-driven planner is gone: plan_from is an unknown field.
		{"retired plan_from", map[string]any{"kind": "f3d", "dims": "6x5x4", "plan_from": 1}},
		// At pulse <= -1 the pulse centre's density rho*(1+pulse) is not
		// positive: the job would fail in the solver after taking a grant.
		{"pulse -1", map[string]any{"kind": "f3d", "dims": "17x13x11", "pulse": -1}},
		{"pulse -2", map[string]any{"kind": "f3d", "dims": "6x5x4", "pulse": -2}},
	}
	for _, tc := range cases {
		var errBody map[string]string
		if code := ts.do("POST", "/jobs", tc.body, &errBody); code != http.StatusBadRequest {
			t.Errorf("%s: POST = %d, want 400 (body %v)", tc.name, code, errBody)
		}
	}

	if code := ts.do("GET", "/jobs/999", nil, &map[string]string{}); code != http.StatusNotFound {
		t.Errorf("GET unknown job = %d, want 404", code)
	}
	if code := ts.do("GET", "/jobs/zork", nil, &map[string]string{}); code != http.StatusBadRequest {
		t.Errorf("GET malformed id = %d, want 400", code)
	}
	if code := ts.do("GET", "/jobs/1/plan", nil, nil); code != http.StatusNotFound {
		t.Errorf("GET /jobs/1/plan = %d, want 404 (no such route)", code)
	}
	if code := ts.do("POST", "/jobs/999/cancel", nil, &map[string]string{}); code != http.StatusNotFound {
		t.Errorf("cancel unknown job = %d, want 404", code)
	}
	if code := ts.do("GET", "/healthz", nil, &healthzReply{}); code != http.StatusOK {
		t.Errorf("GET /healthz = %d, want 200", code)
	}
	if m := ts.metrics(); m.Submitted != 0 {
		t.Errorf("bad requests were admitted: submitted = %d", m.Submitted)
	}
}

// TestTimeoutSecBoundsOverHTTP: a positive timeout_sec must be a
// deadline sched can hold. From ≈ 9.2e9 s it overflows time.Duration to
// a negative value, which sched reads as "no deadline", and below 1 ns it
// truncates to 0, which inherits the default: both would silently drop
// the -job-timeout the daemon was started with, so both are 400. The
// bounds themselves are accepted.
func TestTimeoutSecBoundsOverHTTP(t *testing.T) {
	ts := newTestServer(t, sched.Config{Procs: 1, DefaultTimeout: time.Minute}, serverConfig{})
	for _, sec := range []float64{1e10, maxTimeoutSec * 1.5, 1e-10} {
		var reply map[string]any
		body := map[string]any{"kind": "f3d", "dims": "6x5x4", "timeout_sec": sec}
		if code := ts.do("POST", "/jobs", body, &reply); code != http.StatusBadRequest {
			t.Errorf("timeout_sec %g = %d, want 400 (reply %v)", sec, code, reply)
		}
	}
	if m := ts.metrics(); m.Submitted != 0 {
		t.Fatalf("out-of-bounds timeouts were admitted: submitted = %d", m.Submitted)
	}
	for _, sec := range []float64{maxTimeoutSec, 1e-9, -1} {
		var st sched.JobStatus
		body := map[string]any{"kind": "f3d", "dims": "6x5x4", "steps": 1, "timeout_sec": sec}
		if code := ts.do("POST", "/jobs", body, &st); code != http.StatusAccepted {
			t.Fatalf("timeout_sec %g = %d, want 202", sec, code)
		}
		ts.do("POST", fmt.Sprintf("/jobs/%d/cancel", st.ID), nil, nil)
	}
}

// TestSyntheticBoundsOverHTTP: a synthetic job checks for cancellation
// only between steps, and converts cycles to spin counts through int,
// so a step's region count and spin counts are bounded at submission.
// A body the size of the benchmark's largest synthetic job stays inside
// the bounds.
func TestSyntheticBoundsOverHTTP(t *testing.T) {
	ts := newTestServer(t, sched.Config{Procs: 2}, serverConfig{})
	for _, body := range []map[string]any{
		{"kind": "synthetic", "sync_events": maxParallelism + 1},
		{"kind": "synthetic", "sync_events": 1_000_000_000_000},
		{"kind": "synthetic", "work_cycles": float64(maxSpin)},
		{"kind": "synthetic", "serial_cycles": float64(maxSpin)},
		{"kind": "synthetic", "work_cycles": 1e6, "work_scale": 1e10},
		{"kind": "synthetic", "serial_cycles": 1e19},
	} {
		var reply map[string]any
		if code := ts.do("POST", "/jobs", body, &reply); code != http.StatusBadRequest {
			t.Errorf("POST %v = %d, want 400 (reply %v)", body, code, reply)
		}
	}
	if m := ts.metrics(); m.Submitted != 0 {
		t.Fatalf("out-of-bounds bodies were admitted: submitted = %d", m.Submitted)
	}
	var st sched.JobStatus
	if code := ts.do("POST", "/jobs", map[string]any{
		"kind": "synthetic", "parallelism": 8, "work_cycles": 2e7, "serial_cycles": 1e6,
		"sync_events": 4, "steps": 5,
	}, &st); code != http.StatusAccepted {
		t.Fatalf("serve_mix-sized synthetic body = %d, want 202", code)
	}
	ts.do("POST", fmt.Sprintf("/jobs/%d/cancel", st.ID), nil, nil)
}

// TestAdaptiveJobOverHTTP: the adaptive kind and its state route are
// gone. An adaptive submission over HTTP is an unknown kind (400), and
// GET /jobs/{id}/adapt is an unknown route (404) for a served job as for
// an unknown job ID. A job with parallelism M is granted exactly the
// plateau rule's processors.
func TestAdaptiveJobOverHTTP(t *testing.T) {
	const m = 6 // plateaus 1, 2, 3 under 4 processors: the grant is 3
	ts := newTestServer(t, sched.Config{Procs: 4}, serverConfig{})
	if code := ts.do("POST", "/jobs", map[string]any{
		"kind": "adaptive", "name": "rag", "parallelism": m, "steps": 8, "work_scale": 150,
	}, nil); code != http.StatusBadRequest {
		t.Errorf(`POST {"kind":"adaptive"} = %d, want 400`, code)
	}

	// Its 2e6 cycles clear the bar of two model.ForkCycles, so it
	// requests all m units; work_scale keeps the spin at 1 000 iterations.
	var st sched.JobStatus
	if code := ts.do("POST", "/jobs", map[string]any{
		"kind": "synthetic", "parallelism": m, "steps": 2, "work_cycles": 2e6, "work_scale": 5e-4,
	}, &st); code != http.StatusAccepted {
		t.Fatalf("submit synthetic = %d", code)
	}
	if got, want := ts.waitState(st.ID, sched.StateDone).Granted, sched.PlateauGrant(m, 4); got != want {
		t.Fatalf("synthetic M=%d granted %d, want PlateauGrant(%d, 4) = %d", m, got, m, want)
	}
	if code := ts.do("GET", fmt.Sprintf("/jobs/%d/adapt", st.ID), nil, nil); code != http.StatusNotFound {
		t.Errorf("GET /jobs/%d/adapt = %d, want 404", st.ID, code)
	}
	if code := ts.do("GET", "/jobs/99999/adapt", nil, nil); code != http.StatusNotFound {
		t.Errorf("GET /adapt for unknown job = %d, want 404", code)
	}
}
