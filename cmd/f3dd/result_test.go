package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/simclock"
)

// resultServer is a daemon whose result wait runs on a virtual clock
// while the scheduler keeps the real one, so every clock waiter is a
// held GET /jobs/{id}/result: no deadline watcher can be mistaken for
// one.
func resultServer(t *testing.T) (*testServer, *simclock.Virtual) {
	clk := simclock.NewVirtual(time.Unix(0, 0))
	ts := newTestServer(t, sched.Config{Procs: 2, QueueDepth: 4}, serverConfig{clock: clk})
	// Runs before the server's cleanup, which waits for every request:
	// a test that fails with a request still held does not hang.
	t.Cleanup(func() { clk.Advance(resultWait) })
	return ts, clk
}

// gatedJob submits a job that runs until gate closes or it is
// canceled, and waits until it runs.
func gatedJob(ts *testServer, gate <-chan struct{}) *sched.Handle {
	ts.t.Helper()
	h, err := ts.s.Submit(sched.NewFuncJob("gated", 1, func(g *sched.Grant) error {
		select {
		case <-gate:
		case <-g.Context().Done():
		}
		return g.Checkpoint()
	}))
	if err != nil {
		ts.t.Fatal(err)
	}
	ts.waitState(h.ID(), sched.StateRunning)
	return h
}

// heldResult issues GET /jobs/{id}/result in the background, waits
// until the handler holds it on the clock (its one waiter), and returns
// where the status code will arrive (0 if the request failed).
func heldResult(ts *testServer, clk *simclock.Virtual, id uint64) <-chan int {
	ts.t.Helper()
	codes := make(chan int, 1)
	go func() {
		resp, err := ts.ts.Client().Get(fmt.Sprintf("%s/jobs/%d/result", ts.ts.URL, id))
		if err != nil {
			ts.t.Error(err)
			codes <- 0
			return
		}
		resp.Body.Close()
		codes <- resp.StatusCode
	}()
	eventually(ts.t, "the held result request", func() bool { return clk.Waiters() == 1 })
	return codes
}

// answer is the status code of a held request, failing the test if it
// is not answered within ten seconds.
func answer(t *testing.T, codes <-chan int) int {
	t.Helper()
	select {
	case code := <-codes:
		return code
	case <-time.After(10 * time.Second):
		t.Fatal("the held result request was never answered")
		return 0
	}
}

// TestResultWaitsForTheJob: one GET /jobs/{id}/result issued while the
// job runs is answered 200 when the job ends — no second request, no
// clock movement — and leaves no timer behind.
func TestResultWaitsForTheJob(t *testing.T) {
	ts, clk := resultServer(t)
	gate := make(chan struct{})
	h := gatedJob(ts, gate)
	codes := heldResult(ts, clk, h.ID())
	close(gate)
	if code := answer(t, codes); code != http.StatusOK {
		t.Fatalf("held result = %d, want 200", code)
	}
	if n := clk.Waiters(); n != 0 {
		t.Errorf("%d clock timers outlive the answered request", n)
	}
}

// TestResultAnswers202AtTheBound: a job that outlives the wait's bound
// gets 202, not before the clock reaches it and as soon as it does.
func TestResultAnswers202AtTheBound(t *testing.T) {
	ts, clk := resultServer(t)
	gate := make(chan struct{})
	defer close(gate)
	h := gatedJob(ts, gate)
	codes := heldResult(ts, clk, h.ID())
	clk.Advance(resultWait - time.Nanosecond)
	select {
	case code := <-codes:
		t.Fatalf("answered %d before the bound", code)
	case <-time.After(20 * time.Millisecond):
	}
	clk.Advance(time.Nanosecond)
	if code := answer(t, codes); code != http.StatusAccepted {
		t.Fatalf("result past the bound = %d, want 202", code)
	}
	if st := h.Status(); st.State != sched.StateRunning {
		t.Fatalf("job %v after the bound, want running", st.State)
	}
}

// TestResultClientHangupReleasesHandler: a client that hangs up on a
// held request frees the handler at once: its timer is stopped and the
// goroutine count returns to where it was before the request.
func TestResultClientHangupReleasesHandler(t *testing.T) {
	ts, clk := resultServer(t)
	gate := make(chan struct{})
	defer close(gate)
	h := gatedJob(ts, gate)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", fmt.Sprintf("%s/jobs/%d/result", ts.ts.URL, h.ID()), nil)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := ts.ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	eventually(t, "the held result request", func() bool { return clk.Waiters() == 1 })
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("the hung-up request got an answer")
	}
	eventually(t, "the handler to stop its timer", func() bool { return clk.Waiters() == 0 })
	eventually(t, "the goroutine count to return to baseline", func() bool { return runtime.NumGoroutine() <= baseline })
	if st := h.Status(); st.State != sched.StateRunning {
		t.Fatalf("job %v after the hang-up, want running", st.State)
	}
}

// TestResultAnsweredOnShutdown: a request held over the daemon's
// shutdown is answered with the job's final state. A drain that runs
// out of time leaves it held; Close cancels the job, and the answer is
// 409 canceled.
func TestResultAnsweredOnShutdown(t *testing.T) {
	ts, clk := resultServer(t)
	h := gatedJob(ts, nil)
	codes := heldResult(ts, clk, h.ID())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := ts.s.Drain(ctx); err == nil {
		t.Fatal("drain finished with the job still running")
	}
	select {
	case code := <-codes:
		t.Fatalf("answered %d while the job still ran", code)
	default:
	}
	ts.s.Close()
	if code := answer(t, codes); code != http.StatusConflict {
		t.Fatalf("result after Close = %d, want 409", code)
	}
}
