package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/f3d"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// TestHealthzReadiness: /healthz reports live queue depth and flips to
// 503 "draining" once shutdown begins, so a coordinator's Ping stops
// routing work to the daemon.
func TestHealthzReadiness(t *testing.T) {
	ts := newTestServer(t, sched.Config{Procs: 1, QueueDepth: 4}, serverConfig{})

	var h healthzReply
	if code := ts.do("GET", "/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("GET /healthz = %d, want 200", code)
	}
	if h.Status != "ok" || h.Procs != 1 || h.Queued != 0 || h.Running != 0 || h.Shards != 0 {
		t.Errorf("idle healthz = %+v, want ok with empty queue", h)
	}
	if h.TraceTotal != 0 || h.TraceDropped != 0 {
		t.Errorf("idle healthz trace counters = %d/%d, want 0/0", h.TraceTotal, h.TraceDropped)
	}

	// The tracer's lifetime counters surface on the probe: emit past
	// a tiny ring and both total and dropped must show up.
	tr := ts.s.Tracer()
	tr.Enable()
	var traced sched.JobStatus
	if code := ts.do("POST", "/jobs", map[string]any{"kind": "synthetic", "steps": 1}, &traced); code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d", code)
	}
	ts.waitState(traced.ID, sched.StateDone)
	if code := ts.do("GET", "/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("GET /healthz = %d, want 200", code)
	}
	if h.TraceTotal == 0 {
		t.Error("healthz trace_total still 0 after a traced job")
	}
	if h.TraceTotal != tr.Total() || h.TraceDropped != tr.Dropped() {
		t.Errorf("healthz trace counters = %d/%d, tracer says %d/%d",
			h.TraceTotal, h.TraceDropped, tr.Total(), tr.Dropped())
	}
	tr.Disable()

	// One hogging job plus two queued behind it: the probe must show
	// the backlog a router would want to balance away from.
	long := map[string]any{
		"kind": "synthetic", "parallelism": 1,
		"steps": maxSteps, "work_cycles": 1000000.0,
	}
	var first sched.JobStatus
	if code := ts.do("POST", "/jobs", long, &first); code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d", code)
	}
	ts.waitState(first.ID, sched.StateRunning)
	for i := 0; i < 2; i++ {
		if code := ts.do("POST", "/jobs", long, &sched.JobStatus{}); code != http.StatusAccepted {
			t.Fatalf("queued POST /jobs = %d", code)
		}
	}
	if code := ts.do("GET", "/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("GET /healthz = %d, want 200", code)
	}
	if h.Queued != 2 || h.Running != 1 || h.InUse != 1 {
		t.Errorf("busy healthz = %+v, want queued=2 running=1 in_use=1", h)
	}

	// Draining: cancel everything, drain, and the probe must answer 503
	// with the state spelled out.
	for _, id := range []uint64{first.ID, first.ID + 1, first.ID + 2} {
		ts.do("POST", fmt.Sprintf("/jobs/%d/cancel", id), nil, nil)
	}
	if err := ts.s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code := ts.do("GET", "/healthz", nil, &h); code != http.StatusServiceUnavailable {
		t.Fatalf("draining GET /healthz = %d, want 503", code)
	}
	if h.Status != "draining" {
		t.Errorf("draining healthz status = %q, want \"draining\"", h.Status)
	}
}

// TestClusterSolveOverDaemons shards a three-zone solve across two
// full f3dd daemons (not bare shard servers): the coordinator talks to
// the same mux that serves jobs, metrics and healthz, and the residual
// history must still reproduce the single-node solve bitwise. It then
// drains one daemon and checks its readiness probe reads as
// not-routable.
func TestClusterSolveOverDaemons(t *testing.T) {
	a := newTestServer(t, sched.Config{Procs: 1, QueueDepth: 2}, serverConfig{})
	b := newTestServer(t, sched.Config{Procs: 1, QueueDepth: 2}, serverConfig{})

	c, ifaces := f3d.StackAlongJ("daemon", 20, 6, 5, []int{6, 12})
	cfg := f3d.DefaultConfig(c)
	cfg.Interfaces = ifaces
	const pulse, steps = 0.02, 4

	// Single-node reference.
	ref := func() []f3d.StepStats {
		s, err := f3d.NewCacheSolver(cfg, f3d.CacheOptions{})
		if err != nil {
			t.Fatalf("reference solver: %v", err)
		}
		defer s.Close()
		f3d.InitPulse(s, pulse)
		out := make([]f3d.StepStats, steps)
		for i := range out {
			out[i] = s.Step()
		}
		return out
	}()

	coord := cluster.New(cluster.Config{})
	for id, ts := range map[string]*testServer{"a": a, "b": b} {
		if err := coord.Register(id, &cluster.HTTPClient{BaseURL: ts.ts.URL, Client: ts.ts.Client()}); err != nil {
			t.Fatalf("register %s: %v", id, err)
		}
	}
	res, err := coord.Solve(cluster.SolveSpec{
		Job: "daemon-solve", Config: cfg, PulseAmp: pulse, Steps: steps,
	})
	if err != nil {
		t.Fatalf("sharded solve over daemons: %v", err)
	}
	if res.Workers != 2 {
		t.Errorf("solve used %d workers, want 2", res.Workers)
	}
	for i, st := range res.History {
		if math.Float64bits(st.Residual) != math.Float64bits(ref[i].Residual) ||
			math.Float64bits(st.MaxDelta) != math.Float64bits(ref[i].MaxDelta) {
			t.Fatalf("step %d diverged from single node: (%v, %v) vs (%v, %v)",
				i, st.Residual, st.MaxDelta, ref[i].Residual, ref[i].MaxDelta)
		}
	}

	// No shard leaks on either daemon.
	var h healthzReply
	for name, ts := range map[string]*testServer{"a": a, "b": b} {
		if code := ts.do("GET", "/healthz", nil, &h); code != http.StatusOK {
			t.Fatalf("daemon %s healthz = %d", name, code)
		}
		if h.Shards != 0 {
			t.Errorf("daemon %s leaked %d shards", name, h.Shards)
		}
	}

	// A drained daemon fails the coordinator's readiness ping.
	if err := b.s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	client := &cluster.HTTPClient{BaseURL: b.ts.URL, Client: b.ts.Client()}
	if err := client.Ping(); err == nil {
		t.Error("Ping succeeded against a draining daemon; coordinators would keep routing to it")
	}
}

// TestFleetTimelineOverDaemons: a traced solve over two f3dd daemons,
// each registered under its URL as f3dc registers it, read once
// through cluster.ReadTimeline. The fleet timeline names exactly the
// coordinator and the two URLs, so each daemon's shard spans join the
// lane its step RPCs time: every step is confirmed, with its exchange
// measured.
func TestFleetTimelineOverDaemons(t *testing.T) {
	tracer := obs.NewTracer(4096, simclock.Real{})
	tracer.Enable()
	coord := cluster.New(cluster.Config{Tracer: tracer})
	sources := map[string]cluster.TraceSource{}
	nodes := []string{obs.CoordNode}
	for i := 0; i < 2; i++ {
		ts := newTestServer(t, sched.Config{Procs: 1, QueueDepth: 2}, serverConfig{})
		url := ts.ts.URL
		client := &cluster.HTTPClient{BaseURL: url, Client: ts.ts.Client()}
		if err := client.SetTrace(true, true); err != nil {
			t.Fatalf("enable trace on %s: %v", url, err)
		}
		if err := coord.Register(url, client); err != nil {
			t.Fatalf("register %s: %v", url, err)
		}
		sources[url] = client
		nodes = append(nodes, url)
	}
	slices.Sort(nodes)

	c, ifaces := f3d.StackAlongJ("fleet", 20, 6, 5, []int{6, 12})
	cfg := f3d.DefaultConfig(c)
	cfg.Interfaces = ifaces
	const steps = 3
	if _, err := coord.Solve(cluster.SolveSpec{Job: "fleet", Config: cfg, PulseAmp: 0.02, Steps: steps}); err != nil {
		t.Fatalf("traced solve over daemons: %v", err)
	}
	timeline, err := cluster.ReadTimeline(tracer, sources)
	if err != nil {
		t.Fatalf("read timeline: %v", err)
	}

	rep := analyze.ClusterAnalyze(timeline)
	if !slices.Equal(rep.Nodes, nodes) {
		t.Errorf("timeline nodes = %v, want %v", rep.Nodes, nodes)
	}
	if len(rep.Solves) != 1 || len(rep.Solves[0].Steps) != steps {
		t.Fatalf("report solves = %+v, want one solve of %d steps", rep.Solves, steps)
	}
	for _, st := range rep.Solves[0].Steps {
		if st.Verdict != "confirmed" || st.ExchangeNs == 0 {
			t.Errorf("step %d: verdict %q, exchange %d ns, want confirmed with its exchange measured (workers %+v)",
				st.Step, st.Verdict, st.ExchangeNs, st.Workers)
		}
	}
}

// TestShardsAreJobs: a hosted shard is a job of the daemon's scheduler —
// listed by GET /jobs, waited for by a drain that refuses new shard
// creates with 503, and finished (its processors back) by its release.
func TestShardsAreJobs(t *testing.T) {
	ts := newTestServer(t, sched.Config{Procs: 1, QueueDepth: 2}, serverConfig{})
	client := &cluster.HTTPClient{BaseURL: ts.ts.URL, Client: ts.ts.Client()}
	c, ifaces := f3d.StackAlongJ("jobs", 20, 6, 5, []int{6, 12})
	cfg := f3d.DefaultConfig(c)
	cfg.Interfaces = ifaces
	req := cluster.CreateShardRequest{Job: "jobs", Lo: 0, Hi: 3, Config: cfg, PulseAmp: 0.02}
	created, err := client.CreateShard(req)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	var jobs []sched.JobStatus
	if code := ts.do("GET", "/jobs", nil, &jobs); code != http.StatusOK || len(jobs) != 1 ||
		jobs[0].Name != "shard jobs" || jobs[0].State != sched.StateRunning {
		t.Fatalf("GET /jobs = %d %+v, want the one running shard job", code, jobs)
	}

	drained := make(chan error, 1)
	go func() { drained <- ts.s.Drain(context.Background()) }()
	eventually(t, "the drain to begin", ts.s.Draining)
	if _, err := client.CreateShard(req); err == nil || !strings.Contains(err.Error(), "503") {
		t.Errorf("create during a drain: err %v, want a 503 refusal", err)
	}
	if _, err := client.StepShard(cluster.StepRequest{Job: "jobs", ID: created.ID}); err != nil {
		t.Errorf("step during a drain: %v", err)
	}
	select {
	case err := <-drained:
		t.Fatalf("drain returned (%v) with a shard still live", err)
	default:
	}
	if err := client.ReleaseShard(cluster.ReleaseRequest{Job: "jobs", ID: created.ID}); err != nil {
		t.Fatalf("release: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	var h healthzReply
	ts.do("GET", "/healthz", nil, &h)
	if h.Shards != 0 || h.InUse != 0 {
		t.Errorf("after the release: %d shards, %d processors in use, want 0 and 0", h.Shards, h.InUse)
	}
	if m := ts.s.Metrics(); m.Completed != 1 || m.Canceled != 0 {
		t.Errorf("after the release: %d jobs done, %d canceled; want the released shard done", m.Completed, m.Canceled)
	}
}

// eventually polls cond until it holds, failing after ten seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for end := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
