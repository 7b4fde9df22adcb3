package cluster

import (
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/euler"
	"repro/internal/f3d"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// testCase builds the 3-zone case the cluster tests shard: a 20×6×5
// box stacked into three zones along J, as the config of the coupled
// solve (shared Dt), and the pulse amplitude.
func testCase() (f3d.Config, float64) {
	c, ifaces := f3d.StackAlongJ("c3", 20, 6, 5, []int{6, 12})
	cfg := f3d.DefaultConfig(c)
	cfg.Interfaces = ifaces
	return cfg, 0.02
}

// referenceHistory runs the single-node coupled solve and returns the
// per-step stats.
func referenceHistory(t *testing.T, steps int) []StepStat {
	t.Helper()
	cfg, amp := testCase()
	s, err := f3d.NewCacheSolver(cfg, f3d.CacheOptions{})
	if err != nil {
		t.Fatalf("reference solver: %v", err)
	}
	defer s.Close()
	f3d.InitPulse(s, amp)
	hist := make([]StepStat, steps)
	for i := 0; i < steps; i++ {
		st := s.Step()
		hist[i] = StepStat{Residual: st.Residual, MaxDelta: st.MaxDelta, Flops: st.Flops}
	}
	return hist
}

// newTestHost returns a host whose shards run on a procs-processor
// scheduler that closes with the test.
func newTestHost(t testing.TB, procs int) *Host {
	s := sched.New(sched.Config{Procs: procs})
	t.Cleanup(s.Close)
	return NewHost(s)
}

// newTestCluster registers n in-process workers on a coordinator.
func newTestCluster(t *testing.T, n int, clock simclock.Clock) (*Coordinator, []*LocalWorker) {
	t.Helper()
	c := New(Config{})
	workers := make([]*LocalWorker, n)
	for i := range workers {
		id := string(rune('a'+i)) + "-worker"
		workers[i] = NewLocalWorker(id, sched.Config{Clock: clock})
		if err := c.Register(id, workers[i]); err != nil {
			t.Fatalf("register %s: %v", id, err)
		}
	}
	return c, workers
}

func assertHistoryBitwise(t *testing.T, got, want []StepStat) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("history length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i].Residual) != math.Float64bits(want[i].Residual) {
			t.Errorf("step %d residual %v, want %v", i, got[i].Residual, want[i].Residual)
		}
		if math.Float64bits(got[i].MaxDelta) != math.Float64bits(want[i].MaxDelta) {
			t.Errorf("step %d max-delta %v, want %v", i, got[i].MaxDelta, want[i].MaxDelta)
		}
		if got[i].Flops != want[i].Flops {
			t.Errorf("step %d flops %v, want %v", i, got[i].Flops, want[i].Flops)
		}
	}
}

// TestShardedSolveMatchesSingleNode is the tentpole obligation: the
// same 3-zone case sharded over 2 and 3 workers must reproduce the
// single-node residual history bitwise.
func TestShardedSolveMatchesSingleNode(t *testing.T) {
	const steps = 6
	want := referenceHistory(t, steps)
	for _, nw := range []int{1, 2, 3} {
		c, workers := newTestCluster(t, nw, nil)
		cfg, amp := testCase()
		res, err := c.Solve(SolveSpec{
			Job:    "conf",
			Config: cfg, PulseAmp: amp, Steps: steps,
		})
		if err != nil {
			t.Fatalf("%d workers: solve: %v", nw, err)
		}
		if res.Workers != nw {
			t.Errorf("%d workers: plan used %d", nw, res.Workers)
		}
		assertHistoryBitwise(t, res.History, want)
		for _, w := range workers {
			if n := w.Host().ShardCount(); n != 0 {
				t.Errorf("%d workers: %s still holds %d shards", nw, w.ID(), n)
			}
		}
	}
}

// failAfter wraps a client and injects ErrWorkerDown starting with the
// n-th StepShard call — a worker lost mid-solve, deterministically.
type failAfter struct {
	WorkerClient
	calls, n int
}

func (f *failAfter) StepShard(req StepRequest) (StepResponse, error) {
	f.calls++
	if f.calls > f.n {
		return StepResponse{}, ErrWorkerDown
	}
	return f.WorkerClient.StepShard(req)
}

// TestFailoverReproducesHistory loses a worker mid-solve: the engine
// must re-shard onto the survivors, roll back to the checkpoint and
// still deliver the single-node history bitwise.
func TestFailoverReproducesHistory(t *testing.T) {
	const steps = 6
	want := referenceHistory(t, steps)
	clock := simclock.NewVirtual(time.Unix(0, 0))
	tracer := obs.NewTracer(256, clock)
	tracer.Enable()
	c := New(Config{Tracer: tracer})
	cfg, amp := testCase()

	good := make([]*LocalWorker, 2)
	for i, id := range []string{"alpha", "beta"} {
		good[i] = NewLocalWorker(id, sched.Config{Clock: clock})
		if err := c.Register(id, good[i]); err != nil {
			t.Fatalf("register: %v", err)
		}
	}
	flaky := &failAfter{WorkerClient: NewLocalWorker("gamma", sched.Config{Clock: clock}), n: 3}
	if err := c.Register("gamma", flaky); err != nil {
		t.Fatalf("register: %v", err)
	}

	res, err := c.Solve(SolveSpec{
		Job:    "failover",
		Config: cfg, PulseAmp: amp, Steps: steps,
	})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if flaky.calls <= flaky.n {
		t.Fatalf("injected worker was never used (%d calls); loss path untested", flaky.calls)
	}
	if res.Failovers < 1 {
		t.Fatalf("no failover recorded")
	}
	assertHistoryBitwise(t, res.History, want)
	if len(c.Live()) != 2 {
		t.Errorf("live workers %v, want the two survivors", c.Live())
	}
	if got := c.Metrics(); got != nil {
		// The failover must be visible in metrics and the trace.
		found := false
		for _, e := range tracer.Events() {
			if e.Kind == obs.KindFailover && e.Name == "gamma" {
				found = true
			}
		}
		if !found {
			t.Error("no failover trace event for the lost worker")
		}
	}
}

// TestReuseThenFailoverRestoreIsBitwise: shards built on the zone
// storage an earlier solve at another pulse released, the re-sharded
// ones restored from the checkpoint included, still deliver the
// single-node history bitwise.
func TestReuseThenFailoverRestoreIsBitwise(t *testing.T) {
	const steps = 6
	want := referenceHistory(t, steps)
	c, _ := newTestCluster(t, 2, nil)
	cfg, amp := testCase()
	if _, err := c.Solve(SolveSpec{Job: "warm", Config: cfg, PulseAmp: 0.3, Steps: steps}); err != nil {
		t.Fatalf("warm-up solve: %v", err)
	}
	flaky := &failAfter{WorkerClient: NewLocalWorker("gamma", sched.Config{}), n: 3}
	if err := c.Register("gamma", flaky); err != nil {
		t.Fatalf("register: %v", err)
	}
	res, err := c.Solve(SolveSpec{Job: "reuse", Config: cfg, PulseAmp: amp, Steps: steps})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if flaky.calls <= flaky.n || res.Failovers < 1 {
		t.Fatalf("flaky worker took %d calls, %d failovers: the restore path went untested", flaky.calls, res.Failovers)
	}
	assertHistoryBitwise(t, res.History, want)
}

// snapRecorder notes which buffer each zone's checkpoint came back in,
// step by step.
type snapRecorder struct {
	WorkerClient
	bufs map[int][]*byte // zone -> first byte of each step's snapshot
}

func (r *snapRecorder) StepShard(req StepRequest) (StepResponse, error) {
	resp, err := r.WorkerClient.StepShard(req)
	for _, s := range resp.Snapshots {
		r.bufs[s.Zone] = append(r.bufs[s.Zone], &s.Data[0])
	}
	return resp, err
}

// TestCheckpointBuffersAlternate: per-step checkpoints cycle through
// two buffer sets — a step never writes into the checkpoint a failover
// would restore (the previous step's), and after the first two steps
// it allocates no snapshot storage.
func TestCheckpointBuffersAlternate(t *testing.T) {
	const steps = 7
	want := referenceHistory(t, steps)
	c := New(Config{})
	rec := &snapRecorder{WorkerClient: NewLocalWorker("solo", sched.Config{}), bufs: map[int][]*byte{}}
	if err := c.Register("solo", rec); err != nil {
		t.Fatalf("register: %v", err)
	}
	cfg, amp := testCase()
	zones := cfg.Case.Zones
	res, err := c.Solve(SolveSpec{Job: "alt",
		Config: cfg, PulseAmp: amp, Steps: steps})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	assertHistoryBitwise(t, res.History, want)
	for zi := range zones {
		got := rec.bufs[zi]
		if len(got) != steps {
			t.Fatalf("zone %d: %d checkpoints over %d steps", zi, len(got), steps)
		}
		for s := 1; s < steps; s++ {
			if got[s] == got[s-1] {
				t.Errorf("zone %d: step %d overwrote the live checkpoint's buffer", zi, s)
			}
			if s >= 2 && got[s] != got[s-2] {
				t.Errorf("zone %d: step %d allocated instead of reusing the dropped checkpoint", zi, s)
			}
		}
	}
}

// TestFailoverWithSparseCheckpoints disables per-step checkpoints so
// the rollback replays several steps, and also exercises the
// no-checkpoint-yet path (replay from the initial state).
func TestFailoverWithSparseCheckpoints(t *testing.T) {
	const steps = 6
	want := referenceHistory(t, steps)
	for _, every := range []int{-1, 4} {
		c, _ := newTestCluster(t, 1, nil)
		flaky := &failAfter{WorkerClient: NewLocalWorker("zeta", sched.Config{}), n: 4}
		if err := c.Register("zeta", flaky); err != nil {
			t.Fatalf("register: %v", err)
		}
		cfg, amp := testCase()
		res, err := c.Solve(SolveSpec{
			Job:    "sparse",
			Config: cfg, PulseAmp: amp, Steps: steps, CheckpointEvery: every,
		})
		if err != nil {
			t.Fatalf("every=%d: solve: %v", every, err)
		}
		if flaky.calls <= flaky.n {
			// Placement may not have put a shard on the flaky worker
			// for this job; the solve still must be correct.
			t.Logf("every=%d: flaky worker unused", every)
		}
		assertHistoryBitwise(t, res.History, want)
	}
}

// hangThenDown wraps a client whose n-th StepShard call hangs for hang
// on clock and then answers ErrWorkerDown: a worker its caller gave up
// waiting for (f3dc's -timeout).
type hangThenDown struct {
	WorkerClient
	clock    simclock.Clock
	hang     time.Duration
	calls, n int
}

func (h *hangThenDown) StepShard(req StepRequest) (StepResponse, error) {
	h.calls++
	if h.calls >= h.n {
		h.clock.Sleep(h.hang)
		return StepResponse{}, ErrWorkerDown
	}
	return h.WorkerClient.StepShard(req)
}

// downOnCreate wraps a client that answers err to its n-th and every
// later CreateShard call.
type downOnCreate struct {
	WorkerClient
	err      error
	calls, n int
}

func (d *downOnCreate) CreateShard(req CreateShardRequest) (CreateShardResponse, error) {
	d.calls++
	if d.calls >= d.n {
		return CreateShardResponse{}, d.err
	}
	return d.WorkerClient.CreateShard(req)
}

// wrappedCluster registers alpha, beta and gamma on a virtual clock,
// each worker's client passed through its wrapper (nil: none).
func wrappedCluster(t *testing.T, clock *simclock.Virtual, tracer *obs.Tracer, wrap map[string]func(WorkerClient) WorkerClient) (*Coordinator, []*LocalWorker) {
	t.Helper()
	c := New(Config{Tracer: tracer})
	var workers []*LocalWorker
	for _, id := range []string{"alpha", "beta", "gamma"} {
		w := NewLocalWorker(id, sched.Config{Clock: clock})
		workers = append(workers, w)
		var client WorkerClient = w
		if f := wrap[id]; f != nil {
			client = f(w)
		}
		if err := c.Register(id, client); err != nil {
			t.Fatalf("register %s: %v", id, err)
		}
	}
	return c, workers
}

func assertNoShards(t *testing.T, workers []*LocalWorker) {
	t.Helper()
	for _, w := range workers {
		if n := w.Host().ShardCount(); n != 0 {
			t.Errorf("%s still holds %d shards", w.ID(), n)
		}
	}
}

// TestFailoverAfterLongHang: a worker that hangs far longer than any
// step and then answers ErrWorkerDown is the one loss; the survivors
// stay live however long the hang was, and the solve replays on them
// bit for bit.
func TestFailoverAfterLongHang(t *testing.T) {
	const steps = 6
	want := referenceHistory(t, steps)
	for _, hang := range []time.Duration{6 * time.Second, 30 * time.Second} {
		clock := simclock.NewVirtual(time.Unix(0, 0))
		var hung *hangThenDown
		c, workers := wrappedCluster(t, clock, nil, map[string]func(WorkerClient) WorkerClient{
			"gamma": func(w WorkerClient) WorkerClient {
				hung = &hangThenDown{WorkerClient: w, clock: clock, hang: hang, n: 3}
				return hung
			},
		})
		cfg, amp := testCase()
		res := solveAdvancing(t, c, clock, SolveSpec{Job: "hang", Config: cfg, PulseAmp: amp, Steps: steps})
		if hung.calls < hung.n {
			t.Fatalf("hang %v: the hanging worker was never reached (%d calls)", hang, hung.calls)
		}
		if res.Failovers != 1 || res.Workers != 2 {
			t.Errorf("hang %v: %d failovers on %d workers, want 1 on the 2 survivors", hang, res.Failovers, res.Workers)
		}
		assertHistoryBitwise(t, res.History, want)
		if live := c.Live(); !slices.Equal(live, []string{"alpha", "beta"}) {
			t.Errorf("hang %v: live workers %v, want [alpha beta]", hang, live)
		}
		assertNoShards(t, workers)
	}
}

// TestFailoverOnCreate: a create that answers ErrWorkerDown follows the
// step rule — the worker is marked lost, the event counts as a
// failover, and the solve re-plans over the survivors — whether it is
// the solve's first create or a re-shard's after a step lost another
// worker.
func TestFailoverOnCreate(t *testing.T) {
	const steps = 6
	want := referenceHistory(t, steps)
	down := func(n int) func(WorkerClient) WorkerClient {
		return func(w WorkerClient) WorkerClient { return &downOnCreate{WorkerClient: w, err: ErrWorkerDown, n: n} }
	}
	for _, tc := range []struct {
		name      string
		wrap      map[string]func(WorkerClient) WorkerClient
		failovers int
		live      []string
	}{
		{"first create", map[string]func(WorkerClient) WorkerClient{"beta": down(1)}, 1, []string{"alpha", "gamma"}},
		{"re-shard create", map[string]func(WorkerClient) WorkerClient{
			"beta":  down(2),
			"gamma": func(w WorkerClient) WorkerClient { return &failAfter{WorkerClient: w, n: 3} },
		}, 2, []string{"alpha"}},
	} {
		clock := simclock.NewVirtual(time.Unix(0, 0))
		tracer := obs.NewTracer(1024, clock)
		tracer.Enable()
		c, workers := wrappedCluster(t, clock, tracer, tc.wrap)
		cfg, amp := testCase()
		res := solveAdvancing(t, c, clock, SolveSpec{Job: "create", Config: cfg, PulseAmp: amp, Steps: steps})
		if res.Failovers != tc.failovers || res.Workers != len(tc.live) {
			t.Errorf("%s: %d failovers on %d workers, want %d on %d", tc.name, res.Failovers, res.Workers, tc.failovers, len(tc.live))
		}
		assertHistoryBitwise(t, res.History, want)
		if live := c.Live(); !slices.Equal(live, tc.live) {
			t.Errorf("%s: live workers %v, want %v", tc.name, live, tc.live)
		}
		if n := c.ctrFailovers.Value(); n != uint64(tc.failovers) {
			t.Errorf("%s: cluster_failovers_total %d, want %d", tc.name, n, tc.failovers)
		}
		lost := map[string]bool{}
		for _, e := range tracer.Events() {
			if e.Kind == obs.KindFailover && e.Dur == 0 {
				lost[e.Name] = true
			}
		}
		if !lost["beta"] {
			t.Errorf("%s: no failover trace event for beta (events name %v)", tc.name, lost)
		}
		assertNoShards(t, workers)
	}
}

// TestCreateErrorFailsSolve: an error a worker answers to a create that
// is not ErrWorkerDown is the worker's word on the request, as it is for
// a step: the solve fails without failover and the worker stays live.
func TestCreateErrorFailsSolve(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	refused := errors.New("cluster: /shards/create: 400 Bad Request: refused")
	c, workers := wrappedCluster(t, clock, nil, map[string]func(WorkerClient) WorkerClient{
		"beta": func(w WorkerClient) WorkerClient { return &downOnCreate{WorkerClient: w, err: refused, n: 1} },
	})
	cfg, amp := testCase()
	_, err := c.Solve(SolveSpec{Job: "refused", Config: cfg, PulseAmp: amp, Steps: 6})
	if !errors.Is(err, refused) || !strings.Contains(err.Error(), `"beta"`) {
		t.Fatalf("solve: err %v, want beta's refusal", err)
	}
	if n := c.ctrFailovers.Value(); n != 0 {
		t.Errorf("%d failovers, want 0", n)
	}
	if live := c.Live(); len(live) != 3 {
		t.Errorf("live workers %v, want all 3", live)
	}
	assertNoShards(t, workers)
}

// TestSolveFailsWithNoSurvivors: losing every worker is an error, not
// a hang.
func TestSolveFailsWithNoSurvivors(t *testing.T) {
	c := New(Config{})
	flaky := &failAfter{WorkerClient: NewLocalWorker("solo", sched.Config{}), n: 2}
	if err := c.Register("solo", flaky); err != nil {
		t.Fatalf("register: %v", err)
	}
	cfg, amp := testCase()
	_, err := c.Solve(SolveSpec{
		Job:    "doomed",
		Config: cfg, PulseAmp: amp, Steps: 6,
	})
	if err == nil {
		t.Fatal("solve with no survivors succeeded")
	}
}

// TestSolveSpecValidation covers the rejected specs.
func TestSolveSpecValidation(t *testing.T) {
	c, _ := newTestCluster(t, 1, nil)
	cfg, amp := testCase()
	if _, err := c.Solve(SolveSpec{Job: "x", Config: cfg, PulseAmp: amp}); err == nil {
		t.Error("Steps=0 accepted")
	}
	if _, err := c.Solve(SolveSpec{Job: "x", Config: f3d.Config{Dt: cfg.Dt}, Steps: 1}); err == nil {
		t.Error("no zones accepted")
	}
	bad := cfg
	bad.Dt = 0
	if _, err := c.Solve(SolveSpec{Job: "x", Config: bad, Steps: 1}); err == nil ||
		!strings.Contains(err.Error(), "Dt") {
		t.Errorf("Dt=0: err %v", err)
	}
	// So is a zone geometry no solver can run on.
	bad = cfg
	bad.Case.Zones = slices.Clone(cfg.Case.Zones)
	bad.Case.Zones[1].KMax = 2
	if _, err := c.Solve(SolveSpec{Job: "x", Config: bad, Steps: 1}); err == nil ||
		!strings.Contains(err.Error(), "dims") {
		t.Errorf("KMax=2: err %v", err)
	}
	// A non-physical pulse is the spec's fault, not the worker's: the
	// solve refuses it before any shard create could mark a worker lost.
	if _, err := c.Solve(SolveSpec{Job: "x", Config: cfg, PulseAmp: -2, Steps: 1}); err == nil ||
		!strings.Contains(err.Error(), "pulse") {
		t.Errorf("pulse -2: err %v", err)
	}
	if live := c.Live(); len(live) != 1 {
		t.Errorf("live workers after a rejected spec: %v, want 1", live)
	}
}

// TestHostCreateRejectsNonPhysicalPulse: at pulse_amp <= -1 (or NaN) the
// pulse centre's density is not positive and the shard's first step
// would panic in the solver, so Create answers an error and keeps no
// shard.
func TestHostCreateRejectsNonPhysicalPulse(t *testing.T) {
	cfg, _ := testCase()
	h := newTestHost(t, 1)
	for _, amp := range []float64{-1, -2, math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := h.Create(context.Background(), CreateShardRequest{Job: "j", Lo: 0, Hi: 1, Config: cfg, PulseAmp: amp})
		if err == nil || !strings.Contains(err.Error(), "pulse") {
			t.Errorf("pulse_amp %v: err %v, want a pulse error", amp, err)
		}
	}
	if n := h.ShardCount(); n != 0 {
		t.Errorf("rejected creates left %d shards", n)
	}
}

// TestHostCreateRejectsBadGeometry: the zones of a create request come
// off the wire, so a geometry the solver cannot run on — or a shard
// whose snapshot could never cross back in one frame — is an error
// before anything is allocated, not a panic in Create or in the first
// Step. Over HTTP that is a 400 from a worker that goes on serving.
func TestHostCreateRejectsBadGeometry(t *testing.T) {
	cfg, amp := testCase()
	zone := func(j, k, l int) grid.Zone {
		return grid.Zone{Name: "z", JMax: j, KMax: k, LMax: l, DJ: 0.1, DK: 0.1, DL: 0.1}
	}
	nanSpacing := zone(5, 5, 5)
	nanSpacing.DK = math.NaN()
	shortCoords := zone(6, 5, 5)
	shortCoords.XJ = make([]float64, 5)
	for _, tc := range []struct {
		name string
		z    grid.Zone
		want string
	}{
		{"negative dim", zone(-4, 5, 5), "dims must be >= 3"},
		{"zero dim", zone(0, 5, 5), "dims must be >= 3"},
		{"dim of 2", zone(5, 2, 5), "dims must be >= 3"},
		{"NaN spacing", nanSpacing, "K spacing"},
		{"short coordinates", shortCoords, "5 J coordinates for 6 points"},
		{"oversize", zone(2000, 2000, 2000), "exceeds"},
		{"oversize dim", zone(1<<40, 3, 3), "exceeds"},
	} {
		bad := cfg
		bad.Case = grid.Case{Name: "bad", Zones: []grid.Zone{tc.z}}
		bad.Interfaces = nil
		h := newTestHost(t, 1)
		_, err := h.Create(context.Background(), CreateShardRequest{Job: "j", Lo: 0, Hi: 1, Config: bad, PulseAmp: amp})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want %q", tc.name, err, tc.want)
		}
		if n := h.ShardCount(); n != 0 {
			t.Errorf("%s: rejected create left %d shards", tc.name, n)
		}
	}

	h := newTestHost(t, 1)
	srv := httptest.NewServer(NewShardServer(h))
	defer srv.Close()
	client := &HTTPClient{BaseURL: srv.URL, Client: srv.Client()}
	bad := cfg
	bad.Case.Zones = slices.Clone(cfg.Case.Zones)
	bad.Case.Zones[0].JMax = -4
	_, err := client.CreateShard(CreateShardRequest{Job: "j", Lo: 0, Hi: 1, Config: bad, PulseAmp: amp})
	if err == nil || errors.Is(err, ErrWorkerDown) || !strings.Contains(err.Error(), "400") {
		t.Errorf("negative dims over HTTP: err %v, want a 400 answer", err)
	}
	if _, err := client.CreateShard(CreateShardRequest{Job: "j", Lo: 0, Hi: 1, Config: cfg, PulseAmp: amp}); err != nil {
		t.Errorf("create after the rejected one: %v", err)
	}
}

// TestDivergingSolveFailsWithoutFailover: a pulse the scheme cannot
// advance makes the shard solvers panic mid-solve. The host answers
// that as an error and drops the shard; the coordinator fails the solve
// with it instead of failing over, since every survivor would replay
// the same divergence, and every worker stays live.
func TestDivergingSolveFailsWithoutFailover(t *testing.T) {
	c, workers := newTestCluster(t, 3, nil)
	cfg, _ := testCase()
	_, err := c.Solve(SolveSpec{Job: "diverge", Config: cfg, PulseAmp: 1e300, Steps: 6})
	if err == nil || !strings.Contains(err.Error(), "solver failed") {
		t.Fatalf("solve: err %v, want the shard solver's failure", err)
	}
	if n := c.ctrFailovers.Value(); n != 0 {
		t.Errorf("%d failovers, want 0", n)
	}
	if live := c.Live(); len(live) != len(workers) {
		t.Errorf("live workers %v, want all %d", live, len(workers))
	}
	for _, w := range workers {
		if n := w.Host().ShardCount(); n != 0 {
			t.Errorf("%s still holds %d shards", w.ID(), n)
		}
	}
}

// TestMembership: a registered worker is live until MarkLost (an RPC
// that answered ErrWorkerDown) takes it out of the live set;
// re-registering the lost id revives it, re-registering a live one is
// an error.
func TestMembership(t *testing.T) {
	c := New(Config{})
	w := NewLocalWorker("w1", sched.Config{})
	if err := c.Register("w1", w); err != nil {
		t.Fatalf("register: %v", err)
	}
	if live := c.Live(); len(live) != 1 {
		t.Fatalf("fresh worker not live: %v", live)
	}
	if err := c.Register("w1", w); err == nil {
		t.Error("re-registering a live worker accepted")
	}
	c.MarkLost("w1")
	if live := c.Live(); len(live) != 0 {
		t.Fatalf("lost worker still live: %v", live)
	}
	if err := c.Register("w1", w); err != nil {
		t.Fatalf("re-register a lost worker: %v", err)
	}
	if live := c.Live(); len(live) != 1 || live[0] != "w1" {
		t.Fatalf("revived worker not live: %v", live)
	}
}

// TestRankConsistency: a key's worker order — what Solve places zone
// groups by — is deterministic, holds only live workers, and when a
// worker is lost only the keys it led move; every survivor keeps its
// place relative to the others.
func TestRankConsistency(t *testing.T) {
	c, _ := newTestCluster(t, 4, nil)
	keys := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
	first := map[string][]string{}
	leaders := map[string]bool{}
	for _, k := range keys {
		first[k] = c.rank(k)
		if len(first[k]) != 4 {
			t.Fatalf("rank %s = %v, want all 4 workers", k, first[k])
		}
		if again := c.rank(k); !slices.Equal(again, first[k]) {
			t.Fatalf("rank %s moved: %v -> %v", k, first[k], again)
		}
		leaders[first[k][0]] = true
	}
	if len(leaders) < 2 {
		t.Errorf("all %d keys lead with the same worker %v: rank does not spread them", len(keys), leaders)
	}
	// Keys that differ only in their last byte must spread too.
	clear(leaders)
	for k := 'a'; k <= 'f'; k++ {
		leaders[c.rank("job-" + string(k))[0]] = true
	}
	if len(leaders) < 2 {
		t.Errorf("job-a … job-f all lead with %v: rank does not spread near-identical keys", leaders)
	}
	// Lose one worker: only keys it owned may move.
	gone := first[keys[0]][0]
	c.MarkLost(gone)
	for _, k := range keys {
		got := c.rank(k)
		want := slices.DeleteFunc(slices.Clone(first[k]), func(id string) bool { return id == gone })
		if !slices.Equal(got, want) {
			t.Errorf("rank %s after losing %s = %v, want %v", k, gone, got, want)
		}
	}
	// No workers at all ranks nobody.
	if got := New(Config{}).rank("k"); len(got) != 0 {
		t.Errorf("rank with no workers = %v", got)
	}
}

// TestHTTPTransportEndToEnd runs a 2-worker sharded solve over real
// HTTP (httptest servers around ShardServer) and demands the same
// bitwise history — the serialization path has no excuse either.
func TestHTTPTransportEndToEnd(t *testing.T) {
	const steps = 4
	want := referenceHistory(t, steps)
	c := New(Config{})
	hosts := make([]*Host, 2)
	for i, id := range []string{"http-a", "http-b"} {
		hosts[i] = newTestHost(t, 1)
		srv := httptest.NewServer(NewShardServer(hosts[i]))
		t.Cleanup(srv.Close)
		if err := c.Register(id, &HTTPClient{BaseURL: srv.URL, Client: srv.Client()}); err != nil {
			t.Fatalf("register: %v", err)
		}
	}
	cfg, amp := testCase()
	res, err := c.Solve(SolveSpec{
		Job:    "http",
		Config: cfg, PulseAmp: amp, Steps: steps,
	})
	if err != nil {
		t.Fatalf("solve over HTTP: %v", err)
	}
	if res.Workers != 2 {
		t.Errorf("plan used %d workers, want 2", res.Workers)
	}
	assertHistoryBitwise(t, res.History, want)
	for i, h := range hosts {
		if n := h.ShardCount(); n != 0 {
			t.Errorf("host %d still holds %d shards", i, n)
		}
	}
	// An unreachable daemon maps to ErrWorkerDown.
	dead := &HTTPClient{BaseURL: "http://127.0.0.1:1"}
	if err := dead.Ping(); !errors.Is(err, ErrWorkerDown) {
		t.Errorf("dead daemon ping: %v", err)
	}
}

// TestHostErrors covers the host's validation paths.
func TestHostErrors(t *testing.T) {
	cfg, amp := testCase()
	zones := cfg.Case.Zones
	h := newTestHost(t, 3) // holds three shards at once

	if _, err := h.Create(context.Background(), CreateShardRequest{Job: "j", Lo: 2, Hi: 1, Config: cfg}); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := h.Create(context.Background(), CreateShardRequest{Job: "j", Lo: 0, Hi: 9, Config: cfg}); err == nil {
		t.Error("out-of-range shard accepted")
	}
	bad := cfg
	bad.Dt = -1
	if _, err := h.Create(context.Background(), CreateShardRequest{Job: "j", Lo: 0, Hi: 1, Config: bad}); err == nil {
		t.Error("invalid config accepted")
	}

	resp, err := h.Create(context.Background(), CreateShardRequest{Job: "j", Lo: 0, Hi: 2, Config: cfg, PulseAmp: amp})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if h.ShardCount() != 1 {
		t.Fatalf("shard count %d", h.ShardCount())
	}
	if len(resp.Planes) != 1 {
		t.Fatalf("initial planes %d, want 1 (one cross-shard coupling)", len(resp.Planes))
	}
	// resp's shard [0, 2) couples zones 0 and 1 locally and has one Remote
	// face, zone 1's J-max; mid's shard [1, 2) has two, both of zone 1.
	mid, err := h.Create(context.Background(), CreateShardRequest{Job: "j", Lo: 1, Hi: 2, Config: cfg, PulseAmp: amp})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	plane := func(zone int, face f3d.Face) []byte {
		z := zones[zone]
		p := f3d.BoundaryPlane{Zone: zone, Face: face, KMax: z.KMax, LMax: z.LMax,
			Data: make([]float64, z.KMax*z.LMax*euler.NC)}
		b, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}
	for _, tc := range []struct {
		name   string
		id     string
		step   int
		planes [][]byte
		want   string
	}{
		{"unknown shard", "nope", 0, nil, "no shard"},
		{"out of lockstep", resp.ID, 3, nil, "request for step 3"},
		{"missing plane", resp.ID, 0, nil, "1 remote faces, step 0 carries 0 planes"},
		{"garbage plane", resp.ID, 0, [][]byte{{1, 2, 3}}, "decode plane"},
		{"plane outside the shard", resp.ID, 0, [][]byte{plane(2, f3d.FaceJMin)}, "outside shard"},
		{"plane for a locally coupled face", resp.ID, 0, [][]byte{plane(1, f3d.FaceJMin)}, "no remote link"},
		{"duplicate plane", mid.ID, 0, [][]byte{plane(1, f3d.FaceJMax), plane(1, f3d.FaceJMax)}, "second boundary plane"},
	} {
		if _, err := h.Step(StepRequest{ID: tc.id, Step: tc.step, Planes: tc.planes}); err == nil ||
			!strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want %q", tc.name, err, tc.want)
		}
	}
	// Zone 2's shard donates exactly the plane resp's shard is missing.
	last, err := h.Create(context.Background(), CreateShardRequest{Job: "j", Lo: 2, Hi: 3, Config: cfg, PulseAmp: amp})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := h.Step(StepRequest{ID: resp.ID, Step: 0, Planes: last.Planes}); err != nil {
		t.Errorf("step with its one plane after the rejected ones: %v", err)
	}
	if err := h.Release(ReleaseRequest{ID: "nope"}); err == nil {
		t.Error("release of unknown shard accepted")
	}
	if err := h.Release(ReleaseRequest{ID: resp.ID}); err != nil {
		t.Errorf("release: %v", err)
	}
}

// TestSlowLinkDelaysButCompletes: a slow link stretches the lockstep
// wall time without changing the result (virtual clock, driver
// advancing).
func TestSlowLinkDelaysButCompletes(t *testing.T) {
	const steps = 3
	want := referenceHistory(t, steps)
	clock := simclock.NewVirtual(time.Unix(0, 0))
	c, workers := newTestCluster(t, 2, clock)
	workers[1].SetDelay(200 * time.Millisecond)

	cfg, amp := testCase()
	type out struct {
		res SolveResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := c.Solve(SolveSpec{
			Job:    "slow",
			Config: cfg, PulseAmp: amp, Steps: steps,
		})
		done <- out{res, err}
	}()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case o := <-done:
			if o.err != nil {
				t.Fatalf("solve: %v", o.err)
			}
			assertHistoryBitwise(t, o.res.History, want)
			return
		case <-deadline:
			t.Fatal("slow-link solve did not finish")
		default:
			if !clock.AdvanceToNext() {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}
}
