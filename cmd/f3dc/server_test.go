package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/serve"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// fakeTracedDaemon is a fakeDaemon that also serves the observability
// surface f3dc's collector and metrics rollup scrape — the shared
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

// TestObsServerEndpoints exercises the -serve surface directly: fleet
// metrics rollup with per-worker relabeling, merged /trace, /analyze
// closure, the dashboard, and /healthz.
func TestObsServerEndpoints(t *testing.T) {
	a := fakeTracedDaemon(t)
	tracer := obs.NewTracer(4096, simclock.Real{})
	tracer.Enable()
	coord := cluster.New(cluster.Config{Tracer: tracer})
	col := cluster.NewCollector(cluster.CollectorConfig{Coord: tracer})

	client := &cluster.HTTPClient{BaseURL: a.URL, Client: a.Client()}
	if err := coord.Register(a.URL, client); err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := client.SetTrace(true, true); err != nil {
		t.Fatalf("enable worker trace: %v", err)
	}
	col.AddWorker(a.URL, client)

	o := caseOpts(a.URL)
	spec, err := buildSpec(o)
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	if _, err := coord.Solve(spec); err != nil {
		t.Fatalf("solve: %v", err)
	}

	sv := newObsServer(coord, col, []workerRef{{id: a.URL, client: client}})
	get := func(path string) (int, string, http.Header) {
		t.Helper()
		req := httptest.NewRequest("GET", path, nil)
		rec := httptest.NewRecorder()
		sv.ServeHTTP(rec, req)
		return rec.Code, rec.Body.String(), rec.Header()
	}

	code, body, _ := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	if !strings.Contains(body, "cluster_solves_total 1") {
		t.Errorf("/metrics missing the coordinator's own counters:\n%s", body)
	}
	up := `cluster_worker_up{worker="` + a.URL + `"} 1`
	if !strings.Contains(body, up) {
		t.Errorf("/metrics missing %q:\n%s", up, body)
	}
	relabeled := `daemon_requests_total{worker="` + a.URL + `"}`
	if !strings.Contains(body, relabeled) {
		t.Errorf("/metrics missing relabeled worker sample %q:\n%s", relabeled, body)
	}

	code, body, hdr := get("/trace")
	if code != http.StatusOK {
		t.Fatalf("GET /trace = %d", code)
	}
	if got := hdr.Get("Content-Type"); got != "application/x-ndjson" {
		t.Errorf("/trace content type = %q", got)
	}
	events, err := obs.ReadJSONL(strings.NewReader(body))
	if err != nil || len(events) == 0 {
		t.Fatalf("/trace body not parseable JSONL (%d events): %v", len(events), err)
	}
	workerTagged := false
	for _, e := range events {
		if e.Node == a.URL {
			workerTagged = true
		}
	}
	if !workerTagged {
		t.Error("/trace timeline has no worker-side events; the collector pull behind the handler did not merge them")
	}
	// The merged timeline has no cursor: asking for one is refused
	// rather than answered from the wrong sequence.
	if code, _, _ := get("/trace?since=5"); code != http.StatusBadRequest {
		t.Errorf("GET /trace?since=5 = %d, want 400", code)
	}

	code, body, _ = get("/analyze")
	if code != http.StatusOK {
		t.Fatalf("GET /analyze = %d", code)
	}
	var rep analyze.ClusterReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/analyze is not a cluster report: %v", err)
	}
	if !rep.Closed || len(rep.Solves) != 1 {
		t.Errorf("/analyze closed=%v solves=%d, want closed with 1 solve", rep.Closed, len(rep.Solves))
	}
	if err := analyze.CheckClusterClosure(&rep); err != nil {
		t.Errorf("/analyze report fails closure: %v", err)
	}

	code, body, hdr = get("/dash")
	if code != http.StatusOK || !strings.Contains(body, "<!DOCTYPE html>") {
		t.Fatalf("GET /dash = %d, body %.60q", code, body)
	}
	if !strings.Contains(hdr.Get("Content-Type"), "text/html") {
		t.Errorf("/dash content type = %q", hdr.Get("Content-Type"))
	}
	// The dashboard must consume the report keys /analyze actually
	// emits; a drifting field name renders an empty dashboard.
	for _, key := range []string{"exchange_barrier_share", "straggler_ns", "wall_ns", "rpc_ns"} {
		if !strings.Contains(body, key) {
			t.Errorf("/dash does not reference report key %q", key)
		}
	}

	code, body, _ = get("/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"workers":1`) {
		t.Errorf("GET /healthz = %d %s, want 200 with workers:1", code, body)
	}

	var buf bytes.Buffer
	if err := obs.WriteEventsJSONL(&buf, nil); err != nil {
		t.Errorf("empty timeline write: %v", err)
	}
}

// TestMetricsRollupMarksDownWorkers: an unreachable worker degrades to
// cluster_worker_up 0 instead of failing the whole scrape.
func TestMetricsRollupMarksDownWorkers(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	coord := cluster.New(cluster.Config{})
	col := cluster.NewCollector(cluster.CollectorConfig{})
	client := &cluster.HTTPClient{BaseURL: dead.URL}
	sv := newObsServer(coord, col, []workerRef{{id: dead.URL, client: client}})

	rec := httptest.NewRecorder()
	sv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	want := `cluster_worker_up{worker="` + dead.URL + `"} 0`
	if !strings.Contains(rec.Body.String(), want) {
		t.Errorf("/metrics missing %q:\n%s", want, rec.Body.String())
	}
}

// TestRelabelExposition pins the label-injection rules: labeled and
// unlabeled samples both gain worker=, comments and blanks drop.
func TestRelabelExposition(t *testing.T) {
	rec := httptest.NewRecorder()
	relabelExposition(rec, "# HELP x y\n# TYPE x counter\nx 3\nlat{le=\"0.1\"} 7\n\n", "w01")
	got := rec.Body.String()
	want := "x{worker=\"w01\"} 3\nlat{worker=\"w01\",le=\"0.1\"} 7\n"
	if got != want {
		t.Errorf("relabeled exposition:\n%q\nwant:\n%q", got, want)
	}
}
