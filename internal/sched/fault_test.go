package sched

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/parloop"
	"repro/internal/simclock"
)

// TestJobTimeoutOnVirtualClock runs a job that hangs until canceled
// under a run deadline on the virtual clock: the job must reach
// StateTimedOut with cause "timeout", its error must be ErrTimeout,
// and its processors must return to the pool — all without any real
// time passing.
func TestJobTimeoutOnVirtualClock(t *testing.T) {
	clk := simclock.NewVirtual(time.Unix(0, 0))
	s := New(Config{Procs: 2, QueueDepth: 4, Clock: clk})
	defer s.Close()

	h, err := s.SubmitWithOptions(NewFuncJob("hang", 2, func(g *Grant) error {
		<-g.Context().Done()
		return g.Checkpoint() // reports the cancellation cause
	}), SubmitOptions{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, h, func(st JobStatus) bool { return st.State == StateRunning }, "hang running")

	// The deadline watcher registers on the virtual clock; advancing
	// past the deadline fires it.
	deadline := time.Now().Add(10 * time.Second)
	for clk.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("deadline watcher never registered on the clock")
		}
		time.Sleep(time.Microsecond)
	}
	clk.Advance(time.Minute)

	if err := waitDone(t, h); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Wait = %v, want ErrTimeout", err)
	}
	st := h.Status()
	if st.State != StateTimedOut || st.Cause != CauseTimeout {
		t.Fatalf("status %+v, want timed-out with cause timeout", st)
	}
	m := checkBudget(t, s)
	if m.TimedOut != 1 || m.InUse != 0 || m.Free != 2 {
		t.Fatalf("metrics %+v, want TimedOut 1 and processors reclaimed", m)
	}
	// RunSec is measured on the virtual clock: exactly the minute that
	// was advanced.
	if st.RunSec != 60 {
		t.Fatalf("RunSec = %v, want 60 (virtual)", st.RunSec)
	}
}

// TestTimeoutFreesProcsForQueuedJob is the reclaim half of the
// deadline story: a hung job holding the whole budget times out and
// the queued job behind it gets its processors.
func TestTimeoutFreesProcsForQueuedJob(t *testing.T) {
	clk := simclock.NewVirtual(time.Unix(0, 0))
	s := New(Config{Procs: 4, QueueDepth: 4, Clock: clk, DefaultTimeout: 10 * time.Second})
	defer s.Close()

	hang, err := s.Submit(NewFuncJob("hang", 4, func(g *Grant) error {
		<-g.Context().Done()
		return g.Context().Err()
	}))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, hang, func(st JobStatus) bool { return st.State == StateRunning }, "hang running")

	next := newGate("next", 4)
	hnext, err := s.Submit(next)
	if err != nil {
		t.Fatal(err)
	}
	if st := hnext.Status(); st.State != StateQueued {
		t.Fatalf("next: %+v, want queued behind the hog", st)
	}

	deadline := time.Now().Add(10 * time.Second)
	for clk.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("deadline watcher never registered")
		}
		time.Sleep(time.Microsecond)
	}
	clk.Advance(time.Minute)
	if err := waitDone(t, hang); !errors.Is(err, ErrTimeout) {
		t.Fatalf("hang err = %v, want ErrTimeout", err)
	}
	st := waitStatus(t, hnext, func(st JobStatus) bool { return st.State == StateRunning }, "next re-granted")
	if st.Granted != 4 {
		t.Fatalf("next granted %d, want the full reclaimed budget", st.Granted)
	}
	next.finish <- nil
	if err := waitDone(t, hnext); err != nil {
		t.Fatal(err)
	}
	checkBudget(t, s)
}

// TestCancelQueuedReleasesSlotAndCounts is the satellite regression
// test: canceling a job that never started must release its queue
// slot immediately (a new Submit succeeds where it would have hit
// ErrQueueFull) and must be distinguishable in accounting — cause
// canceled-queued, CanceledQueued counter — from a running cancel.
func TestCancelQueuedReleasesSlotAndCounts(t *testing.T) {
	s := New(Config{Procs: 1, QueueDepth: 2})
	defer s.Close()

	running := newGate("running", 1)
	hr, err := s.Submit(running)
	if err != nil {
		t.Fatal(err)
	}
	q1, _ := s.Submit(newGate("q1", 1))
	q2, _ := s.Submit(newGate("q2", 1))
	if _, err := s.Submit(newGate("q3", 1)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("queue should be full, got %v", err)
	}

	// Cancel a queued job: slot released, distinct terminal cause.
	if err := s.Cancel(q1.ID()); err != nil {
		t.Fatal(err)
	}
	if err := waitDone(t, q1); !errors.Is(err, context.Canceled) {
		t.Fatalf("q1 err = %v, want context.Canceled", err)
	}
	st := q1.Status()
	if st.State != StateCanceled || st.Cause != CauseCanceledQueued {
		t.Fatalf("q1 status %+v, want canceled with cause canceled-queued", st)
	}
	if st.Granted != 0 {
		t.Fatalf("q1 granted %d processors while queued", st.Granted)
	}
	// The slot is free again.
	q3, err := s.Submit(newGate("q3", 1))
	if err != nil {
		t.Fatalf("Submit after queued cancel = %v, want success (slot released)", err)
	}

	m := checkBudget(t, s)
	if m.Canceled != 1 || m.CanceledQueued != 1 {
		t.Fatalf("metrics %+v, want Canceled 1 / CanceledQueued 1", m)
	}

	// A running cancel does NOT bump CanceledQueued.
	if err := s.Cancel(hr.ID()); err != nil {
		t.Fatal(err)
	}
	if err := waitDone(t, hr); !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
	if st := hr.Status(); st.Cause != CauseCanceledRunning {
		t.Fatalf("running cancel cause = %v, want canceled-running", st.Cause)
	}
	m = s.Metrics()
	if m.Canceled != 2 || m.CanceledQueued != 1 {
		t.Fatalf("metrics %+v, want Canceled 2 / CanceledQueued 1", m)
	}

	// Canceling a finished job reports ErrTerminal.
	if err := s.Cancel(q1.ID()); !errors.Is(err, ErrTerminal) {
		t.Fatalf("Cancel(finished) = %v, want ErrTerminal", err)
	}
	for _, h := range []*Handle{q2, q3} {
		h.Cancel()
		_ = waitDone(t, h)
	}
}

// TestWorkerPanicInsideRegionFailsJobAndRegrants is the acceptance
// check for panic-safe regions end to end: a worker panic inside a
// parallel region (with teammates committed to a barrier) surfaces as
// a job failure with cause "panic" — not a process crash — and the
// dead job's processors are re-granted to the queued job behind it.
func TestWorkerPanicInsideRegionFailsJobAndRegrants(t *testing.T) {
	s := New(Config{Procs: 4, QueueDepth: 4})
	defer s.Close()

	boom, err := s.Submit(NewFuncJob("boom", 4, func(g *Grant) error {
		g.Team().Region(func(ctx *parloop.WorkerCtx) {
			if ctx.ID() == 1 {
				panic("solver blew up")
			}
			// Teammates head into a barrier the dead worker will never
			// reach — the panic must break it, not deadlock the team.
			ctx.Barrier()
		})
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	queued := newGate("queued", 4)
	hq, err := s.Submit(queued)
	if err != nil {
		t.Fatal(err)
	}

	if werr := waitDone(t, boom); werr == nil {
		t.Fatal("want error from panicking job")
	}
	st := boom.Status()
	if st.State != StateFailed || st.Cause != CausePanic {
		t.Fatalf("boom status %+v, want failed with cause panic", st)
	}
	if st.Err == "" {
		t.Fatal("boom status carries no error text")
	}

	// The panicking job's processors go to the queued job.
	stq := waitStatus(t, hq, func(st JobStatus) bool { return st.State == StateRunning }, "queued job re-granted")
	if stq.Granted != 4 {
		t.Fatalf("queued job granted %d, want the reclaimed 4", stq.Granted)
	}
	queued.finish <- nil
	if err := waitDone(t, hq); err != nil {
		t.Fatal(err)
	}
	m := checkBudget(t, s)
	if m.Failed != 1 || m.Panics != 1 || m.Completed != 1 {
		t.Fatalf("metrics %+v, want Failed 1 / Panics 1 / Completed 1", m)
	}
}

// TestDefaultTimeoutAppliesAndOptOut checks Config.DefaultTimeout is
// inherited by plain Submits and that a negative per-job timeout opts
// out of the deadline entirely.
func TestDefaultTimeoutAppliesAndOptOut(t *testing.T) {
	clk := simclock.NewVirtual(time.Unix(0, 0))
	s := New(Config{Procs: 2, QueueDepth: 4, Clock: clk, DefaultTimeout: time.Second})
	defer s.Close()

	// Opted-out job: hangs across a huge clock advance, then finishes
	// normally when released.
	release := make(chan struct{})
	free, err := s.SubmitWithOptions(NewFuncJob("free", 1, func(g *Grant) error {
		<-release
		return nil
	}), SubmitOptions{Timeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Inherited-deadline job.
	hang, err := s.Submit(NewFuncJob("hang", 1, func(g *Grant) error {
		<-g.Context().Done()
		return g.Checkpoint()
	}))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, hang, func(st JobStatus) bool { return st.State == StateRunning }, "hang running")

	deadline := time.Now().Add(10 * time.Second)
	for clk.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watcher never registered")
		}
		time.Sleep(time.Microsecond)
	}
	clk.Advance(time.Hour)
	if err := waitDone(t, hang); !errors.Is(err, ErrTimeout) {
		t.Fatalf("hang err = %v, want ErrTimeout (inherited default)", err)
	}
	close(release)
	if err := waitDone(t, free); err != nil {
		t.Fatalf("opted-out job err = %v, want nil despite the hour-long clock jump", err)
	}
	m := checkBudget(t, s)
	if m.TimedOut != 1 || m.Completed != 1 {
		t.Fatalf("metrics %+v, want TimedOut 1 / Completed 1", m)
	}
}

// TestFinishedJobsLeaveNoDeadlineTimer: a job that ends before its
// deadline stops the deadline's timer, so a daemon with a job timeout
// does not hold one live timer per finished job until its deadline.
func TestFinishedJobsLeaveNoDeadlineTimer(t *testing.T) {
	clk := simclock.NewVirtual(time.Unix(0, 0))
	s := New(Config{Procs: 2, QueueDepth: 4, Clock: clk, DefaultTimeout: time.Hour})
	defer s.Close()
	for i := 0; i < 100; i++ {
		h, err := s.Submit(NewFuncJob("trivial", 1, func(*Grant) error { return nil }))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if err := waitDone(t, h); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for clk.Waiters() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d deadline timers outlive their finished jobs, want 0", clk.Waiters())
		}
		time.Sleep(time.Millisecond)
	}
}
