package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/f3d"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/serve"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// fakeDaemon serves the two daemon surfaces f3dc touches — the
// readiness probe and the shard API — over real HTTP, exactly as
// cmd/f3dd mounts them.
func fakeDaemon(t *testing.T) (*httptest.Server, *cluster.Host) {
	t.Helper()
	s := sched.New(sched.Config{})
	t.Cleanup(s.Close)
	host := cluster.NewHost(s)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"status":"ok"}`))
	})
	mux.Handle("POST /shards/", cluster.NewShardServer(host))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, host
}

// result mirrors run's JSON output shape.
type result struct {
	Job   string `json:"job"`
	Zones int    `json:"zones"`
	cluster.SolveResult
}

func runJSON(t *testing.T, o options) result {
	t.Helper()
	var buf bytes.Buffer
	if err := run(&buf, o); err != nil {
		t.Fatalf("run: %v", err)
	}
	var res result
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatalf("run output is not JSON: %v\n%s", err, buf.String())
	}
	return res
}

// caseOpts is the canonical small test case: 20×6×5 stacked into
// three zones at J cuts 6 and 12.
func caseOpts(workers string) options {
	return options{
		workers: workers,
		n:       20, kmax: 6, lmax: 5, cuts: "6,12",
		steps: 4, pulse: 0.02, job: "f3dc-test",
		timeout: 10 * time.Second, quiet: true,
	}
}

// TestRunShardsAcrossDaemons drives the full CLI path (minus flag
// parsing) against two fake daemons and checks the reassembled
// history is bitwise the single-node one.
func TestRunShardsAcrossDaemons(t *testing.T) {
	a, hostA := fakeDaemon(t)
	b, hostB := fakeDaemon(t)
	res := runJSON(t, caseOpts(a.URL+","+b.URL))

	if res.Zones != 3 || res.Workers != 2 || len(res.Groups) != 2 {
		t.Errorf("plan = %d zones over %d workers in %d groups, want 3/2/2", res.Zones, res.Workers, len(res.Groups))
	}

	c, ifaces := f3d.StackAlongJ("f3dc-test", 20, 6, 5, []int{6, 12})
	cfg := f3d.DefaultConfig(c)
	cfg.Case = c
	cfg.Interfaces = ifaces
	s, err := f3d.NewCacheSolver(cfg, f3d.CacheOptions{})
	if err != nil {
		t.Fatalf("reference solver: %v", err)
	}
	defer s.Close()
	f3d.InitPulse(s, 0.02)
	for i := 0; i < 4; i++ {
		st := s.Step()
		if math.Float64bits(res.History[i].Residual) != math.Float64bits(st.Residual) {
			t.Fatalf("step %d residual %v, single node %v", i, res.History[i].Residual, st.Residual)
		}
	}

	if hostA.ShardCount() != 0 || hostB.ShardCount() != 0 {
		t.Errorf("shards leaked: %d on a, %d on b", hostA.ShardCount(), hostB.ShardCount())
	}
}

// TestRunSkipsDeadWorkers: an unreachable URL in -workers is skipped
// at the readiness probe and the solve proceeds on the survivors.
func TestRunSkipsDeadWorkers(t *testing.T) {
	a, _ := fakeDaemon(t)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	res := runJSON(t, caseOpts(dead.URL+","+a.URL))
	if res.Workers != 1 {
		t.Errorf("solve used %d workers, want 1 (the dead one skipped)", res.Workers)
	}
	if len(res.History) != 4 {
		t.Errorf("history has %d steps, want 4", len(res.History))
	}
}

// TestRunErrors: bad flags and an all-dead fleet are errors, not
// panics.
func TestRunErrors(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	cases := []struct {
		name string
		o    options
		want string
	}{
		{"no workers", options{}, "no workers"},
		{"no live workers", caseOpts(dead.URL), "answered /healthz"},
		{"cut too low", func() options { o := caseOpts(dead.URL); o.cuts = "1,12"; return o }(), "out of range"},
		{"cut too high", func() options { o := caseOpts(dead.URL); o.cuts = "6,18"; return o }(), "out of range"},
		{"garbage cut", func() options { o := caseOpts(dead.URL); o.cuts = "six"; return o }(), "bad cut"},
		{"empty cuts", func() options { o := caseOpts(dead.URL); o.cuts = ""; return o }(), "at least one"},
	}
	for _, tc := range cases {
		err := run(&bytes.Buffer{}, tc.o)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// fakeTracedDaemon is a fakeDaemon that also serves the observability
// surface f3dc's collector pulls — the shared
// internal/obs/serve routes over its own tracer and registry, as
// cmd/f3dd mounts them — and a /healthz that reports its clock.
func fakeTracedDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	tracer := obs.NewTracer(4096, simclock.Real{})
	s := sched.New(sched.Config{Tracer: tracer})
	t.Cleanup(s.Close)
	host := cluster.NewHost(s)
	reg := obs.NewRegistry()
	reg.Counter("daemon_requests_total", "Requests served.").Inc()

	mux := http.NewServeMux()
	serve.Surface{Metrics: reg.WritePrometheus, Tracer: tracer}.Mount(mux)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"status": "ok", "now_ns": simclock.Real{}.Now().UnixNano(),
			"trace_total": tracer.Total(), "trace_dropped": tracer.Dropped(),
		})
	})
	mux.Handle("POST /shards/", cluster.NewShardServer(host))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestRunTraceCollectsTimeline drives the CLI path with -trace
// -trace-out against two traced fake daemons: the merged timeline must
// land on disk as parseable JSONL, every event node-tagged, its nodes
// exactly the coordinator and the two worker URLs, and the cluster
// critical-path report over it must close exactly with every step's
// worker spans on their lanes (confirmed, not plausible).
func TestRunTraceCollectsTimeline(t *testing.T) {
	a := fakeTracedDaemon(t)
	b := fakeTracedDaemon(t)

	out := filepath.Join(t.TempDir(), "fleet.jsonl")
	o := caseOpts(a.URL + "," + b.URL)
	o.trace = true
	o.traceBuf = 4096
	o.traceOut = out
	res := runJSON(t, o)
	if res.Trace == "" {
		t.Fatal("traced solve reported no trace id")
	}

	f, err := os.Open(out)
	if err != nil {
		t.Fatalf("trace-out not written: %v", err)
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatalf("trace-out is not JSONL: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("merged timeline is empty")
	}
	nodes := map[string]bool{}
	for i, e := range events {
		if e.Node == "" {
			t.Fatalf("event %d (%v) has no node tag; fleet timelines must attribute every span", i, e.Kind)
		}
		nodes[e.Node] = true
	}
	for _, want := range []string{"coord", a.URL, b.URL} {
		if !nodes[want] {
			t.Errorf("timeline has no events from %q (nodes seen: %v)", want, nodes)
		}
	}

	rep := analyze.ClusterAnalyze(events)
	if err := analyze.CheckClusterClosure(rep); err != nil {
		t.Errorf("cluster attribution does not close: %v", err)
	}
	want := []string{obs.CoordNode, a.URL, b.URL}
	slices.Sort(want)
	if !slices.Equal(rep.Nodes, want) {
		t.Errorf("report nodes = %v, want %v", rep.Nodes, want)
	}
	if len(rep.Solves) != 1 || rep.Solves[0].Trace != res.Trace {
		t.Fatalf("report solves = %+v, want exactly the solve %q", rep.Solves, res.Trace)
	}
	for _, st := range rep.Solves[0].Steps {
		if st.Verdict != "confirmed" {
			t.Errorf("step %d verdict %q, want confirmed (workers %+v)", st.Step, st.Verdict, st.Workers)
		}
	}
}
