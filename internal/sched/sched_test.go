package sched

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
)

// gateJob is a deterministically controllable job: the test drives its
// checkpoints (step) and completion (finish) over channels, so every
// scheduler transition happens at a point the test chose.
type gateJob struct {
	name    string
	m       int
	started chan struct{}
	step    chan struct{}
	finish  chan error
	stepped atomic.Int64 // Checkpoints returned
}

func newGate(name string, m int) *gateJob {
	return &gateJob{
		name:    name,
		m:       m,
		started: make(chan struct{}),
		step:    make(chan struct{}, 64),
		finish:  make(chan error, 1),
	}
}

func (j *gateJob) Name() string     { return j.name }
func (j *gateJob) Parallelism() int { return j.m }
func (j *gateJob) Run(g *Grant) error {
	close(j.started)
	for {
		select {
		case <-j.step:
			if err := g.Checkpoint(); err != nil {
				return err
			}
			j.stepped.Add(1)
		case err := <-j.finish:
			return err
		case <-g.Context().Done():
			return g.Context().Err()
		}
	}
}

func waitStatus(t *testing.T, h *Handle, ok func(JobStatus) bool, what string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := h.Status()
		if ok(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; last status %+v", what, st)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitDone(t *testing.T, h *Handle) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return h.Wait(ctx)
}

// checkpoint steps j once and waits until its Checkpoint has returned.
func checkpoint(t *testing.T, j *gateJob) {
	t.Helper()
	n, deadline := j.stepped.Load(), time.Now().Add(10*time.Second)
	j.step <- struct{}{}
	for j.stepped.Load() == n {
		if time.Now().After(deadline) {
			t.Fatalf("job %q did not return from its Checkpoint", j.name)
		}
		runtime.Gosched()
	}
}

// checkBudget asserts the accounting invariant InUse + Free == Procs
// and the budget ceiling MaxInUse <= Procs.
func checkBudget(t *testing.T, s *Scheduler) Metrics {
	t.Helper()
	m := s.Metrics()
	if m.InUse+m.Free != m.Procs {
		t.Fatalf("budget leak: InUse %d + Free %d != Procs %d", m.InUse, m.Free, m.Procs)
	}
	if m.MaxInUse > m.Procs {
		t.Fatalf("budget exceeded: MaxInUse %d > Procs %d", m.MaxInUse, m.Procs)
	}
	return m
}

// checkOnPlateau asserts a running job's grant sits on a stair-step
// plateau of its requested parallelism.
func checkOnPlateau(t *testing.T, st JobStatus) {
	t.Helper()
	if st.State != StateRunning {
		return
	}
	for _, p := range model.PlateauProcs(st.Requested, st.Requested) {
		if st.Granted == p {
			return
		}
	}
	t.Fatalf("job %q granted %d, off every plateau of M=%d (%v)",
		st.Name, st.Granted, st.Requested, model.PlateauProcs(st.Requested, st.Requested))
}

func TestPlateauPackingAndReclaim(t *testing.T) {
	s := New(Config{Procs: 7, QueueDepth: 8})
	defer s.Close()

	a := newGate("a", 15)
	ha, err := s.Submit(a)
	if err != nil {
		t.Fatal(err)
	}
	// PlateauGrant(15, 7) = 5: granting 6 or 7 buys no speedup over 5.
	if st := ha.Status(); st.State != StateRunning || st.Granted != 5 {
		t.Fatalf("a: %+v, want running with grant 5", st)
	}
	checkOnPlateau(t, ha.Status())

	b := newGate("b", 9)
	hb, err := s.Submit(b)
	if err != nil {
		t.Fatal(err)
	}
	// Two processors remain; PlateauGrant(9, 2) = 2.
	if st := hb.Status(); st.State != StateRunning || st.Granted != 2 {
		t.Fatalf("b: %+v, want running with grant 2", st)
	}

	c := newGate("c", 3)
	hc, err := s.Submit(c)
	if err != nil {
		t.Fatal(err)
	}
	if st := hc.Status(); st.State != StateQueued {
		t.Fatalf("c: %+v, want queued (no free processors)", st)
	}
	m := checkBudget(t, s)
	if m.InUse != 7 || m.Queued != 1 || m.Running != 2 {
		t.Fatalf("metrics %+v, want InUse 7, Queued 1, Running 2", m)
	}

	// Completing a releases 5 processors; c is dispatched with its full
	// request (PlateauGrant(3, 5) = 3).
	a.finish <- nil
	if err := waitDone(t, ha); err != nil {
		t.Fatalf("a: %v", err)
	}
	st := waitStatus(t, hc, func(st JobStatus) bool { return st.State == StateRunning }, "c running")
	if st.Granted != 3 {
		t.Fatalf("c granted %d, want 3", st.Granted)
	}
	checkBudget(t, s)

	b.finish <- nil
	c.finish <- nil
	if err := waitDone(t, hb); err != nil {
		t.Fatalf("b: %v", err)
	}
	if err := waitDone(t, hc); err != nil {
		t.Fatalf("c: %v", err)
	}
	m = checkBudget(t, s)
	if m.Completed != 3 || m.InUse != 0 || m.Free != 7 {
		t.Fatalf("final metrics %+v, want 3 completed and an idle budget", m)
	}
	if st := ha.Status(); st.SyncEvents != 0 {
		// a never ran a region; the counter must still be wired.
		t.Logf("a sync events: %d", st.SyncEvents)
	}
}

func TestGrowAsQueueDrains(t *testing.T) {
	s := New(Config{Procs: 8, QueueDepth: 8})
	defer s.Close()

	b := newGate("b", 5)
	hb, _ := s.Submit(b)
	if st := hb.Status(); st.Granted != 5 {
		t.Fatalf("b granted %d, want 5", st.Granted)
	}
	a := newGate("a", 8)
	ha, _ := s.Submit(a)
	// Three processors were free; PlateauGrant(8, 3) = 3.
	if st := ha.Status(); st.State != StateRunning || st.Granted != 3 {
		t.Fatalf("a: %+v, want running with grant 3", st)
	}

	// b completes with the queue empty. Its processors stay in the pool
	// until a checkpoints and takes them: PlateauGrant(8, 3+5) = 8, a
	// full-plateau grow.
	b.finish <- nil
	if err := waitDone(t, hb); err != nil {
		t.Fatal(err)
	}
	if m := checkBudget(t, s); m.InUse != 3 || m.Free != 5 {
		t.Fatalf("before a's checkpoint: InUse %d, Free %d; want 3 and 5 (a grow is never promised)", m.InUse, m.Free)
	}
	a.step <- struct{}{}
	st := waitStatus(t, ha, func(st JobStatus) bool { return st.Granted == 8 }, "a grown to 8")
	if st.Resizes != 1 {
		t.Fatalf("a resizes = %d, want 1", st.Resizes)
	}
	if m := checkBudget(t, s); m.Resizes != 1 {
		t.Fatalf("metrics resizes = %d, want 1", m.Resizes)
	}
	a.finish <- nil
	if err := waitDone(t, ha); err != nil {
		t.Fatal(err)
	}
}

func TestGrowSkipsWithinPlateau(t *testing.T) {
	// m=15 on 12 processors: the 8-processor plateau extends through
	// 14, so freeing 4 more processors (8 -> 12 available) must NOT
	// grow the job — those processors buy zero speedup.
	s := New(Config{Procs: 12, QueueDepth: 8})
	defer s.Close()

	a := newGate("a", 15)
	ha, _ := s.Submit(a)
	if st := ha.Status(); st.Granted != 8 {
		t.Fatalf("a granted %d, want 8 (PlateauGrant(15, 12))", st.Granted)
	}
	b := newGate("b", 4)
	hb, _ := s.Submit(b)
	if st := hb.Status(); st.Granted != 4 {
		t.Fatalf("b granted %d, want 4", st.Granted)
	}
	b.finish <- nil
	if err := waitDone(t, hb); err != nil {
		t.Fatal(err)
	}
	a.step <- struct{}{}
	// Give any (wrong) grow a chance to land, then confirm none did.
	time.Sleep(10 * time.Millisecond)
	if st := ha.Status(); st.Granted != 8 || st.Resizes != 0 {
		t.Fatalf("a was grown within a plateau: %+v", st)
	}
	if m := checkBudget(t, s); m.Free != 4 {
		t.Fatalf("free = %d, want 4 idle processors (not worth granting)", m.Free)
	}
	a.finish <- nil
	if err := waitDone(t, ha); err != nil {
		t.Fatal(err)
	}
}

func TestShrinkToAdmit(t *testing.T) {
	s := New(Config{Procs: 4, QueueDepth: 8})
	defer s.Close()

	a := newGate("a", 4)
	ha, _ := s.Submit(a)
	if st := ha.Status(); st.Granted != 4 {
		t.Fatalf("a granted %d, want 4", st.Granted)
	}
	b := newGate("b", 2)
	hb, _ := s.Submit(b)
	if st := hb.Status(); st.State != StateQueued {
		t.Fatalf("b: %+v, want queued", st)
	}
	// The shrink request targets a (largest grant). It applies at a's
	// next checkpoint: a drops to the next plateau (2), freeing room
	// for b.
	a.step <- struct{}{}
	stb := waitStatus(t, hb, func(st JobStatus) bool { return st.State == StateRunning }, "b admitted")
	if stb.Granted != 2 {
		t.Fatalf("b granted %d, want 2", stb.Granted)
	}
	sta := ha.Status()
	if sta.Granted != 2 || sta.Resizes != 1 {
		t.Fatalf("a after shrink: %+v, want grant 2 with 1 resize", sta)
	}
	checkOnPlateau(t, sta)
	checkOnPlateau(t, stb)
	checkBudget(t, s)

	a.finish <- nil
	b.finish <- nil
	if err := waitDone(t, ha); err != nil {
		t.Fatal(err)
	}
	if err := waitDone(t, hb); err != nil {
		t.Fatal(err)
	}
}

// TestResizeAlwaysOn: a zero-value Config resizes running jobs. A job
// holding the whole budget drops one plateau to admit a queued job, and
// grows back to its full plateau once that job finishes.
func TestResizeAlwaysOn(t *testing.T) {
	s := New(Config{Procs: 4})
	defer s.Close()

	a := newGate("a", 4)
	ha, _ := s.Submit(a)
	b := newGate("b", 3)
	hb, _ := s.Submit(b)
	if st := hb.Status(); st.State != StateQueued {
		t.Fatalf("b: %+v, want queued behind a's full grant", st)
	}
	// a's next checkpoint applies the shrink: NextLowerPlateau(4, 4) = 2,
	// and b starts on PlateauGrant(3, 2) = 2.
	a.step <- struct{}{}
	stb := waitStatus(t, hb, func(st JobStatus) bool { return st.State == StateRunning }, "b admitted")
	if sta := ha.Status(); sta.Granted != 2 || stb.Granted != 2 {
		t.Fatalf("after shrink-to-admit: a %d, b %d processors, want 2 and 2", sta.Granted, stb.Granted)
	}
	// b finishes with the queue empty: a grows to its next plateau, 4.
	b.finish <- nil
	if err := waitDone(t, hb); err != nil {
		t.Fatal(err)
	}
	a.step <- struct{}{}
	sta := waitStatus(t, ha, func(st JobStatus) bool { return st.Granted == 4 }, "a grown back to 4")
	if sta.Resizes != 2 {
		t.Fatalf("a resizes = %d, want 2 (one shrink, one grow)", sta.Resizes)
	}
	checkBudget(t, s)
	a.finish <- nil
	if err := waitDone(t, ha); err != nil {
		t.Fatal(err)
	}
}

func TestQueueBackpressure(t *testing.T) {
	s := New(Config{Procs: 1, QueueDepth: 2})
	defer s.Close()

	a := newGate("a", 1)
	ha, _ := s.Submit(a)
	if st := ha.Status(); st.State != StateRunning {
		t.Fatalf("a: %+v", st)
	}
	for _, name := range []string{"b", "c"} {
		if _, err := s.Submit(newGate(name, 1)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := s.Submit(newGate("d", 1)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("d: err = %v, want ErrQueueFull", err)
	}
	if m := s.Metrics(); m.Rejected != 1 || m.Queued != 2 {
		t.Fatalf("metrics %+v, want Rejected 1, Queued 2", m)
	}
	s.Close() // cancels the queue and the running gate
}

func TestCancelQueuedAndRunning(t *testing.T) {
	s := New(Config{Procs: 2, QueueDepth: 8})
	defer s.Close()

	a := newGate("a", 2)
	ha, _ := s.Submit(a)
	b := newGate("b", 2)
	hb, _ := s.Submit(b)
	if st := hb.Status(); st.State != StateQueued {
		t.Fatalf("b: %+v, want queued", st)
	}

	// Cancel the queued job: immediate, no processors were held.
	if err := s.Cancel(hb.ID()); err != nil {
		t.Fatal(err)
	}
	if err := waitDone(t, hb); !errors.Is(err, context.Canceled) {
		t.Fatalf("b err = %v, want context.Canceled", err)
	}
	if st := hb.Status(); st.State != StateCanceled {
		t.Fatalf("b: %+v, want canceled", st)
	}

	// Cancel the running job: cooperative, lands via its context.
	if err := s.Cancel(ha.ID()); err != nil {
		t.Fatal(err)
	}
	if err := waitDone(t, ha); !errors.Is(err, context.Canceled) {
		t.Fatalf("a err = %v, want context.Canceled", err)
	}
	m := checkBudget(t, s)
	if m.Canceled != 2 || m.InUse != 0 {
		t.Fatalf("metrics %+v, want 2 canceled and an idle budget", m)
	}
	if err := s.Cancel(9999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Cancel(9999) = %v, want ErrNotFound", err)
	}
}

func TestJobPanicBecomesFailure(t *testing.T) {
	s := New(Config{Procs: 2, QueueDepth: 4})
	defer s.Close()
	h, err := s.Submit(NewFuncJob("boom", 2, func(g *Grant) error {
		panic("kaboom")
	}))
	if err != nil {
		t.Fatal(err)
	}
	werr := waitDone(t, h)
	if werr == nil {
		t.Fatal("want error from panicking job")
	}
	st := h.Status()
	if st.State != StateFailed || st.Err == "" {
		t.Fatalf("status %+v, want failed with error text", st)
	}
	if m := checkBudget(t, s); m.Failed != 1 || m.InUse != 0 {
		t.Fatalf("metrics %+v, want Failed 1 and processors reclaimed", m)
	}
}

func TestDrainStopsAdmissionAndWaits(t *testing.T) {
	s := New(Config{Procs: 2, QueueDepth: 4})
	a := newGate("a", 2)
	ha, _ := s.Submit(a)

	drained := make(chan error, 1)
	go func() {
		drained <- s.Drain(context.Background())
	}()
	// Admission must close promptly once draining. Submissions that
	// race ahead of the draining flag are admitted; cancel them so the
	// drain can complete.
	deadline := time.Now().Add(5 * time.Second)
	var raced []*Handle
	for {
		h, err := s.Submit(newGate("late", 1))
		if errors.Is(err, ErrDraining) {
			break
		}
		if err == nil {
			raced = append(raced, h)
		}
		if time.Now().After(deadline) {
			t.Fatal("Submit never started returning ErrDraining")
		}
		time.Sleep(time.Millisecond)
	}
	for _, h := range raced {
		h.Cancel()
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v before the running job finished", err)
	default:
	}
	a.finish <- nil
	if err := waitDone(t, ha); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return after the last job finished")
	}
	s.Close()
}

func TestDrainHonorsContext(t *testing.T) {
	s := New(Config{Procs: 1, QueueDepth: 4})
	a := newGate("a", 1)
	_, _ = s.Submit(a)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Drain = %v, want context.Canceled", err)
	}
	s.Close()
}

// TestRaggedMixInvariants drives a randomized (but seeded) mix of job
// sizes through a small budget and asserts, at every transition the
// test can observe, that grants are plateau-efficient and the budget
// is never exceeded.
func TestRaggedMixInvariants(t *testing.T) {
	const procs = 6
	s := New(Config{Procs: procs, QueueDepth: 64})
	defer s.Close()
	rng := rand.New(rand.NewSource(42))

	type slot struct {
		j *gateJob
		h *Handle
	}
	var live []slot
	// finishOne completes a randomly chosen RUNNING job (finishing a
	// queued job would deadlock: it cannot start until someone else
	// frees processors). While any jobs are live, at least one is
	// running — the dispatcher always admits the queue head when
	// processors are free.
	finishOne := func() {
		var runnable []int
		for i, sl := range live {
			if sl.h.Status().State == StateRunning {
				runnable = append(runnable, i)
			}
		}
		if len(runnable) == 0 {
			t.Fatal("no running job among live jobs")
		}
		i := runnable[rng.Intn(len(runnable))]
		sl := live[i]
		sl.j.finish <- nil
		if err := waitDone(t, sl.h); err != nil {
			t.Fatal(err)
		}
		live = append(live[:i], live[i+1:]...)
	}
	for round := 0; round < 40; round++ {
		m := 1 + rng.Intn(20)
		j := newGate("job", m)
		h, err := s.Submit(j)
		if errors.Is(err, ErrQueueFull) {
			finishOne()
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, slot{j, h})
		checkBudget(t, s)
		for _, sl := range live {
			checkOnPlateau(t, sl.h.Status())
		}
		// Step every live job so pending resizes apply, then drain a
		// random job now and then to exercise reclaim + regrow.
		for _, sl := range live {
			select {
			case sl.j.step <- struct{}{}:
			default:
			}
		}
		if len(live) > 3 {
			finishOne()
			checkBudget(t, s)
		}
	}
	for len(live) > 0 {
		finishOne()
	}
	m := checkBudget(t, s)
	if m.InUse != 0 || m.Queued != 0 || m.Running != 0 {
		t.Fatalf("not idle after all jobs finished: %+v", m)
	}
}

// TestSyntheticJobRuns executes real StepProfile work through the
// scheduler: two concurrent synthetic jobs that fill a four-processor
// budget between them (so neither is shrunk to admit the other), with
// sync events flowing into the stats. Each sweep region holds 400 000
// cycles of work, above the bar for M = 2 (two model.ForkCycles); the
// 1/40 work scale spins what 20 000 cycles did at scale 1.
func TestSyntheticJobRuns(t *testing.T) {
	s := New(Config{Procs: 4, QueueDepth: 4})
	defer s.Close()
	profile := model.StepProfile{
		Loops: []model.LoopClass{
			{Name: "sweep", WorkCycles: 800_000, Parallelism: 2, SyncEvents: 2},
			{Name: "bc", WorkCycles: 40_000, Parallelism: 1, SyncEvents: 0},
		},
		SerialCycles: 20_000,
	}
	ha, err := s.Submit(NewSyntheticJob("syn-a", profile, 3, 1.0/40))
	if err != nil {
		t.Fatal(err)
	}
	hb, err := s.Submit(NewSyntheticJob("syn-b", profile, 3, 1.0/40))
	if err != nil {
		t.Fatal(err)
	}
	if err := waitDone(t, ha); err != nil {
		t.Fatal(err)
	}
	if err := waitDone(t, hb); err != nil {
		t.Fatal(err)
	}
	sta, stb := ha.Status(), hb.Status()
	if sta.State != StateDone || stb.State != StateDone {
		t.Fatalf("states %v/%v, want done/done", sta.State, stb.State)
	}
	m := checkBudget(t, s)
	if m.Completed != 2 {
		t.Fatalf("completed %d, want 2", m.Completed)
	}
	if m.SyncEvents == 0 {
		t.Fatal("no sync events recorded for parallel synthetic jobs")
	}
}

func TestSubmitClampsParallelism(t *testing.T) {
	s := New(Config{Procs: 2, QueueDepth: 4})
	defer s.Close()
	h, err := s.Submit(NewFuncJob("serial", 0, func(g *Grant) error {
		if g.Team().Workers() != 1 {
			t.Errorf("serial job got %d workers", g.Team().Workers())
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := waitDone(t, h); err != nil {
		t.Fatal(err)
	}
	if st := h.Status(); st.Requested != 1 {
		t.Fatalf("requested %d, want clamped to 1", st.Requested)
	}
}

// TestParkReturnsProcessors: a parked job stays running with a grant of
// 0, so a job needing the whole budget runs beside it. The parked job's
// next Checkpoint queues behind that job and resumes on a fresh grant
// once it finishes; a cancel ends such a wait, and the budget holds
// throughout.
func TestParkReturnsProcessors(t *testing.T) {
	s := New(Config{Procs: 2})
	defer s.Close()
	requests, workers := make(chan struct{}), make(chan int)
	server, err := s.Submit(NewFuncJob("server", 2, func(g *Grant) error {
		for {
			g.Park()
			select {
			case <-requests:
			case <-g.Context().Done():
				return context.Cause(g.Context())
			}
			if err := g.Checkpoint(); err != nil {
				return err
			}
			workers <- g.Team().Workers()
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, server, func(st JobStatus) bool { return st.Granted == 0 }, "the server to park")
	for round := 0; round < 2; round++ {
		hog := newGate("hog", 2)
		h, err := s.Submit(hog)
		if err != nil {
			t.Fatal(err)
		}
		waitStatus(t, h, func(st JobStatus) bool { return st.Granted == 2 }, "the hog to hold both processors")
		requests <- struct{}{}
		for s.Metrics().Queued != 1 {
			time.Sleep(time.Millisecond)
		}
		checkBudget(t, s)
		if round == 1 {
			server.Cancel()
			if err := waitDone(t, server); !errors.Is(err, context.Canceled) {
				t.Errorf("server canceled while it waits for a grant: err %v, want context.Canceled", err)
			}
		}
		hog.finish <- nil
		if err := waitDone(t, h); err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			if w := <-workers; w != 2 {
				t.Errorf("resumed server has a team of %d, want a fresh grant of 2", w)
			}
			waitStatus(t, server, func(st JobStatus) bool { return st.Granted == 0 }, "the server to park again")
		}
	}
	if m := checkBudget(t, s); m.InUse != 0 || m.Queued != 0 || m.Running != 0 {
		t.Errorf("after the cancel: %d in use, %d queued, %d running; want none", m.InUse, m.Queued, m.Running)
	}
}

// TestQueuedJobTakesBackPendingGrow: a grow is taken at the job's own
// Checkpoint, never promised before it. a is shrunk to admit b; b's end
// leaves its processor in the pool; c, submitted before a checkpoints
// again, starts on it at once instead of waiting for a to return, and a
// grows only once c is gone.
func TestQueuedJobTakesBackPendingGrow(t *testing.T) {
	s := New(Config{Procs: 2})
	defer s.Close()

	a := newGate("a", 2)
	ha, _ := s.Submit(a)
	b := newGate("b", 1)
	hb, _ := s.Submit(b)
	a.step <- struct{}{}
	waitStatus(t, hb, func(st JobStatus) bool { return st.State == StateRunning }, "b admitted by a's shrink")
	b.finish <- nil
	if err := waitDone(t, hb); err != nil {
		t.Fatal(err)
	}
	if m := checkBudget(t, s); m.InUse != 1 || m.Free != 1 {
		t.Fatalf("after b: InUse %d, Free %d; want b's processor back in the pool", m.InUse, m.Free)
	}
	before := ha.Status()
	if before.Granted != 1 {
		t.Fatalf("a before its checkpoint: %+v, want grant 1", before)
	}

	c := newGate("c", 1)
	hc, err := s.Submit(c)
	if err != nil {
		t.Fatal(err)
	}
	if st := hc.Status(); st.State != StateRunning || st.Granted != 1 {
		t.Fatalf("c: %+v, want running on 1 processor before a checkpoints", st)
	}
	if st := ha.Status(); st.Granted != 1 || st.Resizes != before.Resizes {
		t.Fatalf("a after c's admission: %+v, want grant 1 and %d resizes", st, before.Resizes)
	}
	checkBudget(t, s)

	c.finish <- nil
	if err := waitDone(t, hc); err != nil {
		t.Fatal(err)
	}
	a.step <- struct{}{}
	st := waitStatus(t, ha, func(st JobStatus) bool { return st.Granted == 2 }, "a grown to 2")
	if st.Resizes != before.Resizes+1 {
		t.Fatalf("a resizes = %d, want %d (the grow applied once)", st.Resizes, before.Resizes+1)
	}
	a.finish <- nil
	if err := waitDone(t, ha); err != nil {
		t.Fatal(err)
	}
	if m := checkBudget(t, s); m.InUse != 0 {
		t.Fatalf("after all jobs: %d in use, want 0", m.InUse)
	}
}

// TestParkedJobResumesIntoPendingGrow: a parked job's Checkpoint queues
// it, and it resumes at once on the idle processor a running job could
// grow onto but has not taken at a checkpoint — a shard hosted beside a
// served job on a 2-processor worker does not wait for that job to
// return.
func TestParkedJobResumesIntoPendingGrow(t *testing.T) {
	s := New(Config{Procs: 2})
	defer s.Close()
	requests, workers := make(chan struct{}), make(chan int)
	server, err := s.Submit(NewFuncJob("server", 1, func(g *Grant) error {
		for {
			g.Park()
			select {
			case <-requests:
			case <-g.Context().Done():
				return context.Cause(g.Context())
			}
			if err := g.Checkpoint(); err != nil {
				return err
			}
			workers <- g.Team().Workers()
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, server, func(st JobStatus) bool { return st.Granted == 0 }, "the server to park")

	b := newGate("b", 1)
	hb, _ := s.Submit(b)
	a := newGate("a", 2)
	ha, _ := s.Submit(a)
	if st := ha.Status(); st.State != StateRunning || st.Granted != 1 {
		t.Fatalf("a: %+v, want running on the 1 processor b left", st)
	}
	b.finish <- nil
	if err := waitDone(t, hb); err != nil {
		t.Fatal(err)
	}
	if m := checkBudget(t, s); m.Free != 1 {
		t.Fatalf("after b: %d free, want b's processor idle until a checkpoints", m.Free)
	}

	requests <- struct{}{}
	select {
	case w := <-workers:
		if w != 1 {
			t.Errorf("resumed server has a team of %d, want 1", w)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the server did not resume on the processor a had not taken")
	}
	if st := ha.Status(); st.Granted != 1 || st.Resizes != 0 {
		t.Errorf("a after the server resumed: %+v, want grant 1 and no resize", st)
	}
	checkBudget(t, s)

	server.Cancel()
	if err := waitDone(t, server); !errors.Is(err, context.Canceled) {
		t.Errorf("server: err %v, want context.Canceled", err)
	}
	a.step <- struct{}{}
	waitStatus(t, ha, func(st JobStatus) bool { return st.Granted == 2 }, "a grown to 2 once the server parked")
	a.finish <- nil
	if err := waitDone(t, ha); err != nil {
		t.Fatal(err)
	}
	if m := checkBudget(t, s); m.InUse != 0 || m.Running != 0 {
		t.Errorf("after all jobs: %d in use, %d running; want none", m.InUse, m.Running)
	}
}

// TestMaxInUseSeesGrow: a grow applied at a Checkpoint raises the
// high-water mark of processors in use.
func TestMaxInUseSeesGrow(t *testing.T) {
	s := New(Config{Procs: 4})
	defer s.Close()
	b := newGate("b", 1)
	hb, _ := s.Submit(b)
	a := newGate("a", 4)
	ha, _ := s.Submit(a)
	if st := ha.Status(); st.Granted != 2 {
		t.Fatalf("a: %+v, want grant 2 (PlateauGrant(4, 3))", st)
	}
	b.finish <- nil
	if err := waitDone(t, hb); err != nil {
		t.Fatal(err)
	}
	checkpoint(t, a)
	if st := ha.Status(); st.Granted != 4 {
		t.Fatalf("a after its checkpoint: %+v, want grown to 4", st)
	}
	if m := checkBudget(t, s); m.MaxInUse != 4 {
		t.Fatalf("MaxInUse %d after a grew to the whole budget, want 4", m.MaxInUse)
	}
	a.finish <- nil
	if err := waitDone(t, ha); err != nil {
		t.Fatal(err)
	}
}

// TestGrowGoesToTheJobThatCheckpoints: idle processors go to the first
// running job that checkpoints and whose next plateau they complete,
// not to the oldest job.
func TestGrowGoesToTheJobThatCheckpoints(t *testing.T) {
	s := New(Config{Procs: 4})
	defer s.Close()
	a := newGate("a", 4)
	ha, _ := s.Submit(a)
	b := newGate("b", 3)
	hb, _ := s.Submit(b)
	checkpoint(t, a) // a drops to 2 to admit b on PlateauGrant(3, 2) = 2
	if st := hb.Status(); st.State != StateRunning || st.Granted != 2 {
		t.Fatalf("b: %+v, want running on 2", st)
	}
	c := newGate("c", 1)
	hc, _ := s.Submit(c)
	checkpoint(t, a) // a, the older of two 2-processor jobs, drops to 1 to admit c
	if st := hc.Status(); st.State != StateRunning || st.Granted != 1 {
		t.Fatalf("c: %+v, want running on 1", st)
	}
	c.finish <- nil
	if err := waitDone(t, hc); err != nil {
		t.Fatal(err)
	}
	checkpoint(t, b) // PlateauGrant(3, 2+1) = 3
	if st := hb.Status(); st.Granted != 3 {
		t.Fatalf("b after its checkpoint: %+v, want grown to 3 on c's processor", st)
	}
	if st := ha.Status(); st.Granted != 1 || st.Resizes != 2 {
		t.Fatalf("a: %+v, want grant 1 after its 2 shrinks", st)
	}
	if m := checkBudget(t, s); m.Free != 0 {
		t.Fatalf("free = %d, want 0", m.Free)
	}
	a.finish <- nil
	b.finish <- nil
	if err := waitDone(t, ha); err != nil {
		t.Fatal(err)
	}
	if err := waitDone(t, hb); err != nil {
		t.Fatal(err)
	}
}

// A shrink requested to admit a queued job is dropped when that job
// leaves the queue first: the victim's next checkpoint, with the queue
// empty, keeps its grant instead of shrinking and growing back.
func TestUnneededShrinkIsDropped(t *testing.T) {
	s := New(Config{Procs: 4})
	defer s.Close()
	a := newGate("a", 4)
	ha, _ := s.Submit(a)
	b := newGate("b", 2)
	hb, _ := s.Submit(b) // queued; a is asked to shrink to 2
	if st := hb.Status(); st.State != StateQueued {
		t.Fatalf("b: %+v, want queued", st)
	}
	if err := s.Cancel(hb.ID()); err != nil {
		t.Fatal(err)
	}
	if err := waitDone(t, hb); !errors.Is(err, context.Canceled) {
		t.Fatalf("b err = %v, want context.Canceled", err)
	}
	for range 2 {
		checkpoint(t, a)
		if st := ha.Status(); st.Granted != 4 || st.Resizes != 0 {
			t.Fatalf("a: %+v, want grant 4 with 0 resizes", st)
		}
	}
	if m := checkBudget(t, s); m.Free != 0 {
		t.Fatalf("free = %d, want 0", m.Free)
	}
	a.finish <- nil
	if err := waitDone(t, ha); err != nil {
		t.Fatal(err)
	}
}

// Handle finds a job by ID: it sees the job end through Done and
// Status, and an ID never issued is ErrNotFound. Jobs lists in
// submission order even when the jobs finish in another.
func TestHandleByIDAndListingOrder(t *testing.T) {
	s := New(Config{Procs: 2})
	defer s.Close()
	slow := newGate("slow", 1)
	first, err := s.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	<-slow.started
	quick, err := s.Submit(NewFuncJob("quick", 1, func(*Grant) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	if err := waitDone(t, quick); err != nil {
		t.Fatal(err)
	}

	h, err := s.Handle(first.ID())
	if err != nil || h.ID() != first.ID() {
		t.Fatalf("Handle(%d) = %v, %v", first.ID(), h, err)
	}
	slow.finish <- nil
	select {
	case <-h.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("Done never closed")
	}
	if st := h.Status(); st.State != StateDone {
		t.Fatalf("Status after Done = %v, want done", st.State)
	}
	if _, err := s.Handle(99); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Handle(99): err = %v, want ErrNotFound", err)
	}

	jobs := s.Jobs()
	if len(jobs) != 2 || jobs[0].ID != first.ID() || jobs[1].ID != quick.ID() {
		t.Fatalf("Jobs() = %+v, want the slow job, then the quick one", jobs)
	}
}
