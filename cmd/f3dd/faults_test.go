package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/simclock"
)

// doRaw sends an arbitrary (possibly malformed) body, returning only
// the status code.
func (ts *testServer) doRaw(method, path, body string) int {
	ts.t.Helper()
	req, err := http.NewRequest(method, ts.ts.URL+path, strings.NewReader(body))
	if err != nil {
		ts.t.Fatal(err)
	}
	resp, err := ts.ts.Client().Do(req)
	if err != nil {
		ts.t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestMalformedBodiesOverHTTP: submissions that are not valid JSON at
// all (truncated, trailing garbage, wrong types) are 400s, never 500s,
// and admit nothing.
func TestMalformedBodiesOverHTTP(t *testing.T) {
	ts := newTestServer(t, sched.Config{Procs: 1, QueueDepth: 1}, serverConfig{})
	for _, body := range []string{
		"",
		"{",
		"not json",
		`{"kind": "synthetic"} trailing`,
		`{"kind": 42}`,
		`{"kind": "synthetic", "steps": "ten"}`,
	} {
		if code := ts.doRaw("POST", "/jobs", body); code != http.StatusBadRequest {
			t.Errorf("POST %q = %d, want 400", body, code)
		}
	}
	if m := ts.metrics(); m.Submitted != 0 {
		t.Errorf("malformed bodies were admitted: submitted = %d", m.Submitted)
	}

	// The shard endpoints take a binary frame (internal/cluster
	// frame.go): magic, header length, JSON header, raw blobs. Anything
	// else — including the JSON bodies they once took — is a 400; a
	// length field over the 256 MiB cap is a 413 before a byte is
	// buffered for it.
	frame := func(header, blobs string) string {
		b := binary.BigEndian.AppendUint32([]byte{0xf3, 0xd5, 0xf0, 0x01}, uint32(len(header)))
		return string(b) + header + blobs
	}
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"empty", "", http.StatusBadRequest},
		{"old JSON body", `{"job":"j","id":"j-1","step":0}`, http.StatusBadRequest},
		{"bad magic", "\xf3\xd5\xf0\x02" + frame(`{"msg":{}}`, "")[4:], http.StatusBadRequest},
		{"short header", frame(`{"msg":{}}`, "")[:11], http.StatusBadRequest},
		{"header not JSON", frame(`{"msg":`, ""), http.StatusBadRequest},
		{"length past body", frame(`{"msg":{},"planes":[64]}`, "0123456789abcdef"), http.StatusBadRequest},
		{"length over the cap", frame(`{"msg":{},"planes":[1099511627776]}`, ""), http.StatusRequestEntityTooLarge},
		{"well-formed, names no shard", frame(`{"msg":{"id":"nope"}}`, ""), http.StatusBadRequest},
	} {
		for _, path := range []string{"/shards/create", "/shards/step"} {
			if code := ts.doRaw("POST", path, tc.body); code != tc.want {
				t.Errorf("POST %s, %s = %d, want %d", path, tc.name, code, tc.want)
			}
		}
	}
	var hz healthzReply
	if code := ts.do("GET", "/healthz", nil, &hz); code != http.StatusOK || hz.Shards != 0 {
		t.Errorf("malformed frames left %d shards behind (healthz %d)", hz.Shards, code)
	}
}

// TestDrainingReturns503: once the scheduler starts draining,
// submissions are refused with 503 immediately.
func TestDrainingReturns503(t *testing.T) {
	ts := newTestServer(t, sched.Config{Procs: 1, QueueDepth: 4}, serverConfig{})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go ts.s.Drain(ctx)
	deadline := time.Now().Add(10 * time.Second)
	for {
		code := ts.do("POST", "/jobs", map[string]any{"kind": "euler", "points": 8}, nil)
		if code == http.StatusServiceUnavailable {
			break
		}
		if code != http.StatusAccepted {
			t.Fatalf("POST while draining = %d, want 503 (or a 202 race before drain lands)", code)
		}
		if time.Now().After(deadline) {
			t.Fatal("drain never took effect")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestResultStatusMapping drives one job into each terminal state and
// checks GET /jobs/{id}/result encodes it in the HTTP status: 200
// done, 500 failed, 504 timed out, 409 canceled, 202 still in flight
// once the result wait's bound passes, 404 unknown. Failure and hang
// jobs are injected directly through the scheduler — the HTTP surface
// under test is the result mapping.
func TestResultStatusMapping(t *testing.T) {
	clk := simclock.NewVirtual(time.Unix(0, 0))
	ts := newTestServer(t, sched.Config{Procs: 4, QueueDepth: 8, Clock: clk}, serverConfig{clock: clk})

	result := func(id uint64) int {
		var st sched.JobStatus
		return ts.do("GET", fmt.Sprintf("/jobs/%d/result", id), nil, &st)
	}

	// 200: a healthy job submitted over HTTP.
	var done sched.JobStatus
	if code := ts.do("POST", "/jobs", map[string]any{"kind": "euler", "points": 8, "steps": 1}, &done); code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	ts.waitState(done.ID, sched.StateDone)
	if code := result(done.ID); code != http.StatusOK {
		t.Errorf("result(done) = %d, want 200", code)
	}

	// 500: a job whose Run returns an error.
	failed, err := ts.s.Submit(sched.NewFuncJob("fail", 1, func(g *sched.Grant) error {
		return fmt.Errorf("injected failure")
	}))
	if err != nil {
		t.Fatal(err)
	}
	ts.waitState(failed.ID(), sched.StateFailed)
	if code := result(failed.ID()); code != http.StatusInternalServerError {
		t.Errorf("result(failed) = %d, want 500", code)
	}

	// 504: a hung job with a deadline on the virtual clock.
	hung, err := ts.s.SubmitWithOptions(sched.NewFuncJob("hang", 1, func(g *sched.Grant) error {
		<-g.Context().Done()
		return g.Checkpoint()
	}), sched.SubmitOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts.waitState(hung.ID(), sched.StateRunning)
	deadline := time.Now().Add(10 * time.Second)
	for clk.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("deadline watcher never registered")
		}
		time.Sleep(time.Millisecond)
	}
	clk.Advance(time.Minute)
	ts.waitState(hung.ID(), sched.StateTimedOut)
	if code := result(hung.ID()); code != http.StatusGatewayTimeout {
		t.Errorf("result(timed-out) = %d, want 504", code)
	}

	// 202 then 409: an in-flight job, then the same job canceled.
	gated := make(chan struct{})
	live, err := ts.s.Submit(sched.NewFuncJob("live", 1, func(g *sched.Grant) error {
		<-gated
		return g.Checkpoint()
	}))
	if err != nil {
		t.Fatal(err)
	}
	ts.waitState(live.ID(), sched.StateRunning)
	// The request is held on the clock (the hung job's deadline watcher
	// has fired and gone, so the one waiter is the request) until the
	// bound passes.
	held := heldResult(ts, clk, live.ID())
	clk.Advance(resultWait)
	if code := answer(t, held); code != http.StatusAccepted {
		t.Errorf("result(running) = %d, want 202", code)
	}
	if err := ts.s.Cancel(live.ID()); err != nil {
		t.Fatal(err)
	}
	close(gated)
	ts.waitState(live.ID(), sched.StateCanceled)
	if code := result(live.ID()); code != http.StatusConflict {
		t.Errorf("result(canceled) = %d, want 409", code)
	}

	// 404: no such job.
	if code := result(99999); code != http.StatusNotFound {
		t.Errorf("result(unknown) = %d, want 404", code)
	}
}

// TestCancelFinishedJobConflict: canceling a job that already reached
// a terminal state is 409, distinct from canceling an unknown id
// (404).
func TestCancelFinishedJobConflict(t *testing.T) {
	ts := newTestServer(t, sched.Config{Procs: 1, QueueDepth: 2}, serverConfig{})
	var st sched.JobStatus
	if code := ts.do("POST", "/jobs", map[string]any{"kind": "euler", "points": 8, "steps": 1}, &st); code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	ts.waitState(st.ID, sched.StateDone)
	var errBody map[string]string
	if code := ts.do("POST", fmt.Sprintf("/jobs/%d/cancel", st.ID), nil, &errBody); code != http.StatusConflict {
		t.Errorf("cancel finished job = %d, want 409 (body %v)", code, errBody)
	}
	// Cancel has one route; DELETE is not a method of /jobs/{id}.
	if code := ts.doRaw("DELETE", fmt.Sprintf("/jobs/%d", st.ID), ""); code != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /jobs/%d = %d, want 405", st.ID, code)
	}
}

// TestTimeoutSecOverHTTP: timeout_sec in the submission body applies a
// run deadline; the job reports timed-out and its result is 504. The
// scheduler runs on a virtual clock so no real time is burned.
func TestTimeoutSecOverHTTP(t *testing.T) {
	clk := simclock.NewVirtual(time.Unix(0, 0))
	ts := newTestServer(t, sched.Config{Procs: 1, QueueDepth: 2, Clock: clk}, serverConfig{})

	var st sched.JobStatus
	if code := ts.do("POST", "/jobs", map[string]any{
		"kind": "synthetic", "parallelism": 1,
		"steps": maxSteps, "work_cycles": 1000000.0,
		"timeout_sec": 30.0,
	}, &st); code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	ts.waitState(st.ID, sched.StateRunning)
	deadline := time.Now().Add(10 * time.Second)
	for clk.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("deadline watcher never registered")
		}
		time.Sleep(time.Millisecond)
	}
	clk.Advance(time.Minute)
	fin := ts.waitState(st.ID, sched.StateTimedOut)
	if fin.Cause != sched.CauseTimeout {
		t.Errorf("cause = %v, want timeout", fin.Cause)
	}
	var res sched.JobStatus
	if code := ts.do("GET", fmt.Sprintf("/jobs/%d/result", st.ID), nil, &res); code != http.StatusGatewayTimeout {
		t.Errorf("result = %d, want 504", code)
	}
	if m := ts.metrics(); m.TimedOut != 1 {
		t.Errorf("metrics.TimedOut = %d, want 1", m.TimedOut)
	}
}

// TestDefaultTimeoutOverHTTP: the scheduler's DefaultTimeout (f3dd's
// -job-timeout) is the one default deadline. A submission without
// timeout_sec inherits it and ends 504; the same job with
// "timeout_sec": -1 opts out and runs to 200 across the same clock jump.
func TestDefaultTimeoutOverHTTP(t *testing.T) {
	clk := simclock.NewVirtual(time.Unix(0, 0))
	ts := newTestServer(t, sched.Config{Procs: 2, QueueDepth: 2, Clock: clk, DefaultTimeout: 30 * time.Second}, serverConfig{})

	submit := func(extra map[string]any) uint64 {
		body := map[string]any{"kind": "synthetic", "parallelism": 1, "steps": 100, "work_cycles": 1000000.0}
		for k, v := range extra {
			body[k] = v
		}
		var st sched.JobStatus
		if code := ts.do("POST", "/jobs", body, &st); code != http.StatusAccepted {
			t.Fatalf("POST %v = %d", extra, code)
		}
		return st.ID
	}
	result := func(id uint64) int {
		var st sched.JobStatus
		return ts.do("GET", fmt.Sprintf("/jobs/%d/result", id), nil, &st)
	}

	// The opted-out job starts first, so it is still running, and any
	// deadline watcher of its own registered, when the clock jumps.
	optOut := submit(map[string]any{"timeout_sec": -1.0})
	ts.waitState(optOut, sched.StateRunning)
	inherit := submit(nil)
	ts.waitState(inherit, sched.StateRunning)
	deadline := time.Now().Add(10 * time.Second)
	for clk.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("deadline watcher never registered")
		}
		time.Sleep(time.Millisecond)
	}
	ts.waitState(optOut, sched.StateRunning)
	clk.Advance(time.Minute)

	ts.waitState(inherit, sched.StateTimedOut)
	if code := result(inherit); code != http.StatusGatewayTimeout {
		t.Errorf("result(no timeout_sec) = %d, want 504", code)
	}
	ts.waitState(optOut, sched.StateDone)
	if code := result(optOut); code != http.StatusOK {
		t.Errorf("result(timeout_sec -1) = %d, want 200", code)
	}
}
