package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/simclock"
)

// eventually polls cond until it holds, failing the test after ten
// seconds of wall time.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for end := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// deadlineCluster registers one single-processor LocalWorker per client
// wrapper on a virtual clock; each worker's scheduler gives its jobs,
// and so its shards, the deadline d.
func deadlineCluster(t *testing.T, clock *simclock.Virtual, d time.Duration, wrap ...func(WorkerClient) WorkerClient) (*Coordinator, []*LocalWorker) {
	t.Helper()
	c := New(Config{})
	workers := make([]*LocalWorker, len(wrap))
	for i, w := range wrap {
		id := string(rune('a'+i)) + "-worker"
		workers[i] = NewLocalWorker(id, sched.Config{Procs: 1, Clock: clock, DefaultTimeout: d})
		if err := c.Register(id, w(workers[i])); err != nil {
			t.Fatalf("register %s: %v", id, err)
		}
	}
	return c, workers
}

func direct(w WorkerClient) WorkerClient { return w }

// TestHostExpiresAbandonedShards: a coordinator that creates its shards
// and vanishes leaves nothing behind. A shard's deadline is its job's,
// counted from its last command, so one deadline after that command
// every worker's shard count is back to 0 and its shard jobs read
// timed-out. A step that arrives later is answered as a lost worker —
// over the in-process transport and over HTTP alike — so a coordinator
// restores from its checkpoint instead of failing the solve.
func TestHostExpiresAbandonedShards(t *testing.T) {
	const d = time.Second
	clock := simclock.NewVirtual(time.Unix(0, 0))
	c, workers := deadlineCluster(t, clock, d, direct, direct, direct)
	cfg, amp := testCase()
	spec := SolveSpec{Job: "abandoned", Config: cfg, PulseAmp: amp, Steps: 4}
	shards, _, err := c.createShards(spec, checkpoint{}, "abandoned#1")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	shardCount := func() (n int) {
		for _, w := range workers {
			n += w.Host().ShardCount()
		}
		return n
	}
	if len(shards) != 3 || shardCount() != 3 {
		t.Fatalf("%d shards planned, %d hosted, want 3 and 3", len(shards), shardCount())
	}
	armed := func() bool { return clock.Waiters() >= len(shards) }
	eventually(t, "the deadline watchers", armed)

	// Each shard's last command comes 0.6 deadlines in; the coordinator
	// then vanishes. At one deadline from the creates every shard lives.
	clock.Advance(d * 6 / 10)
	for _, sh := range shards {
		if _, err := sh.client.StepShard(StepRequest{Job: spec.Job, ID: sh.id, Step: 0, Planes: sh.inbox}); err != nil {
			t.Fatalf("step 0 on %s: %v", sh.worker, err)
		}
	}
	clock.Advance(d * 4 / 10)
	eventually(t, "the re-armed deadline watchers", armed)
	if n := shardCount(); n != 3 {
		t.Fatalf("%d shards live one deadline after their creates, want all 3: the last command renews the deadline", n)
	}
	clock.Advance(d * 6 / 10)
	eventually(t, "every shard to expire", func() bool { return shardCount() == 0 })
	for _, w := range workers {
		for _, st := range w.Host().sched.Jobs() {
			if st.State != sched.StateTimedOut {
				t.Errorf("%s: shard job %q is %s, want timed-out", w.ID(), st.Name, st.State)
			}
		}
	}

	for _, sh := range shards {
		_, err := sh.client.StepShard(StepRequest{Job: spec.Job, ID: sh.id, Step: 1})
		if !errors.Is(err, ErrWorkerDown) {
			t.Errorf("step for the expired shard %s on %s: err %v, want ErrWorkerDown", sh.id, sh.worker, err)
		}
	}
	srv := httptest.NewServer(NewShardServer(workers[0].Host()))
	defer srv.Close()
	client := &HTTPClient{BaseURL: srv.URL, Client: srv.Client()}
	if _, err := client.StepShard(StepRequest{ID: shards[0].id, Step: 1}); !errors.Is(err, ErrWorkerDown) {
		t.Errorf("step for an expired shard over HTTP: err %v, want ErrWorkerDown", err)
	}
	if _, err := client.StepShard(StepRequest{ID: "nope"}); err == nil || errors.Is(err, ErrWorkerDown) {
		t.Errorf("step for a shard that never was, over HTTP: err %v, want a plain refusal", err)
	}
}

// stallStep holds a worker's call for one lockstep step until resume
// is closed, after signalling stalled: a coordinator that stops
// between its calls.
type stallStep struct {
	WorkerClient
	step            int
	stalled, resume chan struct{}
}

func (s *stallStep) StepShard(req StepRequest) (StepResponse, error) {
	if req.Step == s.step {
		s.stalled <- struct{}{}
		<-s.resume
	}
	return s.WorkerClient.StepShard(req)
}

// stepTap signals on answered each time the worker has answered a call
// for one lockstep step.
type stepTap struct {
	WorkerClient
	step     int
	answered chan struct{}
}

func (s *stepTap) StepShard(req StepRequest) (StepResponse, error) {
	resp, err := s.WorkerClient.StepShard(req)
	if req.Step == s.step {
		s.answered <- struct{}{}
	}
	return resp, err
}

// TestHostExpiredShardFailsOver: the coordinator stalls on one worker's
// step 2 while every shard sits idle, long enough for all of them to
// expire. The stalled step then reaches its worker, is answered as a
// lost worker, and the solve fails over from its step-2 checkpoint onto
// the other two, whose expired shards it replaces: the history is still
// the single-node one, bit for bit.
func TestHostExpiredShardFailsOver(t *testing.T) {
	const steps, d = 5, time.Second
	want := referenceHistory(t, steps)
	clock := simclock.NewVirtual(time.Unix(0, 0))
	stall := &stallStep{step: 2, stalled: make(chan struct{}, 1), resume: make(chan struct{})}
	answered := make(chan struct{}, 2*steps)
	tap := func(w WorkerClient) WorkerClient { return &stepTap{WorkerClient: w, step: 2, answered: answered} }
	c, workers := deadlineCluster(t, clock, d,
		func(w WorkerClient) WorkerClient { stall.WorkerClient = w; return stall }, tap, tap)
	cfg, amp := testCase()
	type out struct {
		res SolveResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := c.Solve(SolveSpec{Job: "stalled", Config: cfg, PulseAmp: amp, Steps: steps})
		done <- out{res, err}
	}()

	<-stall.stalled
	<-answered
	<-answered
	eventually(t, "the deadline watchers", func() bool { return clock.Waiters() >= 3 })
	clock.Advance(d)
	for _, w := range workers {
		eventually(t, w.ID()+"'s shard to expire", func() bool { return w.Host().ShardCount() == 0 })
	}
	close(stall.resume)

	o := <-done
	if o.err != nil {
		t.Fatalf("solve: %v", o.err)
	}
	if o.res.Failovers != 1 || o.res.Workers != 2 {
		t.Errorf("failovers %d onto %d workers, want 1 onto the 2 others", o.res.Failovers, o.res.Workers)
	}
	assertHistoryBitwise(t, o.res.History, want)
}

// TestHostCreateWaitsOnlyForItsCaller: a create on a worker whose
// processors a served job holds waits for its grant only as long as its
// caller does. A caller that gives up — in process by its context, over
// HTTP by its client's timeout, which the coordinator reads as a lost
// worker — withdraws the queued job, so no shard is built later for
// nobody.
func TestHostCreateWaitsOnlyForItsCaller(t *testing.T) {
	cfg, amp := testCase()
	h := newTestHost(t, 1)
	release := make(chan struct{})
	served, err := h.sched.Submit(sched.NewFuncJob("served", 1, func(*sched.Grant) error { <-release; return nil }))
	if err != nil {
		t.Fatalf("served job: %v", err)
	}
	req := CreateShardRequest{Job: "held", Lo: 0, Hi: 3, Config: cfg, PulseAmp: amp}
	queued := func() bool { return h.sched.Metrics().Queued == 1 }

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := h.Create(ctx, req)
		done <- err
	}()
	eventually(t, "the create to queue", queued)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("abandoned create: err %v, want context.Canceled", err)
	}

	srv := httptest.NewServer(NewShardServer(h))
	defer srv.Close()
	client := &HTTPClient{BaseURL: srv.URL, Client: &http.Client{Timeout: 100 * time.Millisecond}}
	if _, err := client.CreateShard(req); !errors.Is(err, ErrWorkerDown) {
		t.Errorf("create over HTTP on a full worker: err %v, want the client's timeout as ErrWorkerDown", err)
	}
	eventually(t, "the HTTP create to withdraw", func() bool { return h.sched.Metrics().Queued == 0 })

	close(release)
	if err := served.Wait(context.Background()); err != nil {
		t.Fatalf("served job: %v", err)
	}
	if n := h.ShardCount(); n != 0 {
		t.Errorf("%d shards after the served job, want 0: a withdrawn create was built", n)
	}
	m := h.sched.Metrics()
	if m.CanceledQueued != 2 || m.InUse != 0 {
		t.Errorf("%d creates withdrawn from the queue, %d processors in use; want 2 and 0", m.CanceledQueued, m.InUse)
	}
}

// TestHostIdleShardHoldsNoProcessor: a shard holds a processor only
// while it runs a command. With no deadline set, two shards a
// coordinator created and then abandoned on a one-processor worker
// block neither another create nor a served job, and are still there
// to be stepped and released.
func TestHostIdleShardHoldsNoProcessor(t *testing.T) {
	cfg, amp := testCase()
	h := newTestHost(t, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var ids []string
	for _, job := range []string{"abandoned", "abandoned", "next"} {
		resp, err := h.Create(ctx, CreateShardRequest{Job: job, Lo: 0, Hi: 3, Config: cfg, PulseAmp: amp})
		if err != nil {
			t.Fatalf("create %d beside %d idle shards: %v", len(ids)+1, len(ids), err)
		}
		ids = append(ids, resp.ID)
	}
	served, err := h.sched.Submit(sched.NewFuncJob("served", 1, func(*sched.Grant) error { return nil }))
	if err != nil {
		t.Fatalf("served job: %v", err)
	}
	if err := served.Wait(ctx); err != nil {
		t.Fatalf("served job beside idle shards: %v", err)
	}
	if m := h.sched.Metrics(); h.ShardCount() != 3 || m.InUse != 0 {
		t.Errorf("%d shards, %d processors in use; want 3 idle shards holding 0", h.ShardCount(), m.InUse)
	}
	for _, id := range ids {
		if _, err := h.Step(StepRequest{ID: id, Step: 0}); err != nil {
			t.Errorf("step %s: %v", id, err)
		}
		if err := h.Release(ReleaseRequest{ID: id}); err != nil {
			t.Errorf("release %s: %v", id, err)
		}
	}
	if m := h.sched.Metrics(); m.Completed != 4 || m.Canceled != 0 {
		t.Errorf("%d jobs done, %d canceled; want the 3 released shards and the served job done, none canceled",
			m.Completed, m.Canceled)
	}
}

// meetAtStep0 holds each worker call for step 0 until n of them have
// arrived, or for ten seconds, which it records as missed.
type meetAtStep0 struct {
	WorkerClient
	mu     *sync.Mutex
	n      *int
	all    chan struct{}
	missed *bool
}

func (m *meetAtStep0) StepShard(req StepRequest) (StepResponse, error) {
	if req.Step == 0 {
		m.mu.Lock()
		if *m.n--; *m.n == 0 {
			close(m.all)
		}
		m.mu.Unlock()
		select {
		case <-m.all:
		case <-time.After(10 * time.Second):
			m.mu.Lock()
			*m.missed = true
			m.mu.Unlock()
		}
	}
	return m.WorkerClient.StepShard(req)
}

// TestHostConcurrentSolves: two solves, whose job keys rank the same two
// one-processor workers in opposite orders, each create shards on both
// workers before either takes a step. Neither waits on the other's idle
// shards: both finish without a failover and with the single-node
// history, bit for bit.
func TestHostConcurrentSolves(t *testing.T) {
	const steps = 4
	want := referenceHistory(t, steps)
	var mu sync.Mutex
	calls, missed := 4, false // step 0 on two workers for each of two solves
	meet := &meetAtStep0{mu: &mu, n: &calls, all: make(chan struct{}), missed: &missed}
	wrap := func(w WorkerClient) WorkerClient { m := *meet; m.WorkerClient = w; return &m }
	c, _ := deadlineCluster(t, simclock.NewVirtual(time.Unix(0, 0)), 0, wrap, wrap)
	jobs := []string{"solve-0", ""}
	for i := 1; jobs[1] == ""; i++ {
		if k := fmt.Sprintf("solve-%d", i); c.rank(k)[0] != c.rank(jobs[0])[0] {
			jobs[1] = k
		}
	}
	cfg, amp := testCase()
	var wg sync.WaitGroup
	results, errs := make([]SolveResult, 2), make([]error, 2)
	for i, job := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = c.Solve(SolveSpec{Job: job, Config: cfg, PulseAmp: amp, Steps: steps})
		}()
	}
	wg.Wait()
	if missed {
		t.Error("the two solves never held their shards at once: a create waited on the other solve's idle shards")
	}
	for i, job := range jobs {
		if errs[i] != nil {
			t.Fatalf("solve %s: %v", job, errs[i])
		}
		if r := results[i]; r.Failovers != 0 || r.Workers != 2 {
			t.Errorf("solve %s: %d failovers on %d workers, want 0 on 2", job, r.Failovers, r.Workers)
		}
		assertHistoryBitwise(t, results[i].History, want)
	}
}
