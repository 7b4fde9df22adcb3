package main

import (
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/serve"
	"repro/internal/sched"
)

// runTracedJob enables tracing and runs one synthetic job to
// completion, returning its name. Its work clears the bar of two
// model.ForkCycles, so it runs on all four units; work_scale keeps the
// spin at 1 000 iterations.
func runTracedJob(t *testing.T, ts *testServer) string {
	t.Helper()
	var status serve.TraceStatus
	if code := ts.do("POST", "/trace/enable", nil, &status); code != http.StatusOK {
		t.Fatalf("POST /trace/enable = %d", code)
	}
	var st sched.JobStatus
	if code := ts.do("POST", "/jobs", map[string]any{
		"kind": "synthetic", "name": "diag-job", "parallelism": 4, "steps": 3, "work_cycles": 8e5, "work_scale": 1.25e-3,
	}, &st); code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d", code)
	}
	ts.waitState(st.ID, sched.StateDone)
	return "diag-job"
}

// getFull fetches a path returning status, headers and body.
func (ts *testServer) getFull(path string) (int, http.Header, string) {
	ts.t.Helper()
	resp, err := ts.ts.Client().Get(ts.ts.URL + path)
	if err != nil {
		ts.t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		ts.t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(b)
}

// TestTraceCursorAndHeaders: /trace honors ?since= and reports the
// next cursor and drop count in headers — the protocol the dashboard's
// live tail reads.
func TestTraceCursorAndHeaders(t *testing.T) {
	ts := newTestServer(t, sched.Config{Procs: 4, QueueDepth: 8}, serverConfig{})
	runTracedJob(t, ts)

	code, hdr, body := ts.getFull("/trace")
	if code != http.StatusOK {
		t.Fatalf("GET /trace = %d", code)
	}
	if hdr.Get("X-Trace-Dropped") != "0" {
		t.Errorf("X-Trace-Dropped = %q, want 0", hdr.Get("X-Trace-Dropped"))
	}
	next, err := strconv.ParseUint(hdr.Get("X-Trace-Next"), 10, 64)
	if err != nil || next == 0 {
		t.Fatalf("X-Trace-Next = %q, want a positive cursor", hdr.Get("X-Trace-Next"))
	}
	full := strings.Count(body, "\n")
	if full == 0 {
		t.Fatal("empty trace after a traced job")
	}

	// Resuming from the returned cursor yields nothing new and the
	// cursor does not move.
	code, hdr, body = ts.getFull("/trace?since=" + strconv.FormatUint(next, 10))
	if code != http.StatusOK || strings.TrimSpace(body) != "" {
		t.Errorf("GET /trace?since=next = %d with body %q, want empty 200", code, body)
	}
	if hdr.Get("X-Trace-Next") != strconv.FormatUint(next, 10) {
		t.Errorf("idle cursor moved: %q != %d", hdr.Get("X-Trace-Next"), next)
	}

	// A mid-stream cursor returns only the suffix.
	mid := next / 2
	if _, _, body = ts.getFull("/trace?since=" + strconv.FormatUint(mid, 10)); strings.Count(body, "\n") >= full {
		t.Errorf("since=%d returned %d lines, want fewer than %d", mid, strings.Count(body, "\n"), full)
	}

	if code, _, _ = ts.getFull("/trace?since=banana"); code != http.StatusBadRequest {
		t.Errorf("GET /trace?since=banana = %d, want 400", code)
	}
}

// TestTraceDroppedHeader: overflowing the ring surfaces the drop
// count in X-Trace-Dropped and a leading trace_dropped marker line.
func TestTraceDroppedHeader(t *testing.T) {
	ts := newTestServer(t, sched.Config{Procs: 4, QueueDepth: 8, Tracer: obs.NewTracer(16, nil)}, serverConfig{})
	runTracedJob(t, ts)

	code, hdr, body := ts.getFull("/trace")
	if code != http.StatusOK {
		t.Fatalf("GET /trace = %d", code)
	}
	dropped, err := strconv.ParseUint(hdr.Get("X-Trace-Dropped"), 10, 64)
	if err != nil || dropped == 0 {
		t.Fatalf("X-Trace-Dropped = %q, want > 0 after overflowing a 16-slot ring", hdr.Get("X-Trace-Dropped"))
	}
	firstLine, _, _ := strings.Cut(body, "\n")
	var marker map[string]any
	if err := json.Unmarshal([]byte(firstLine), &marker); err != nil {
		t.Fatalf("first trace line %q: %v", firstLine, err)
	}
	if marker["kind"] != "trace_dropped" || marker["a"] != float64(dropped) {
		t.Errorf("first line %v, want trace_dropped marker with a=%d", marker, dropped)
	}
}

// TestAnalyzeEndpoint: /analyze returns a decodable report built from
// the live ring, stamped with its label. A traced served f3d job adds
// one phase span per zone and step group: the report ranks them as
// "<job>/<zone>/<group>" rows and attributes exactly what it would
// without them.
func TestAnalyzeEndpoint(t *testing.T) {
	ts := newTestServer(t, sched.Config{Procs: 4, QueueDepth: 8}, serverConfig{})
	name := runTracedJob(t, ts)
	var st sched.JobStatus
	if code := ts.do("POST", "/jobs", map[string]any{
		"kind": "f3d", "name": "phased", "dims": "12x11x10", "steps": 3, "pulse": 0.05,
	}, &st); code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d", code)
	}
	ts.waitState(st.ID, sched.StateDone)

	code, body := ts.get("/analyze?label=pr4")
	if code != http.StatusOK {
		t.Fatalf("GET /analyze = %d", code)
	}
	var rep analyze.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("analyze response: %v", err)
	}
	if rep.Schema != analyze.Schema || rep.Label != "pr4" {
		t.Errorf("schema/label = %d/%q", rep.Schema, rep.Label)
	}
	if len(rep.Loops) == 0 || rep.Loops[0].Name != name {
		t.Fatalf("loops = %+v, want %s first", rep.Loops, name)
	}
	l := rep.Loops[0]
	if l.Regions == 0 || l.Workers != 4 {
		t.Errorf("regions/workers = %d/%d, want >0/4", l.Regions, l.Workers)
	}
	if len(rep.Grants) == 0 {
		t.Error("no grant buckets from a scheduled job")
	}

	events, dropped := ts.s.Tracer().EventsSince(0)
	if dropped != 0 {
		t.Fatalf("the ring dropped %d events", dropped)
	}
	want := analyze.Analyze(slices.DeleteFunc(events, func(e obs.Event) bool { return e.Kind == obs.KindPhase }))
	if !reflect.DeepEqual(rep.Loops, want.Loops) || rep.Totals != want.Totals ||
		!reflect.DeepEqual(rep.Occupancy, want.Occupancy) || !reflect.DeepEqual(rep.Grants, want.Grants) {
		t.Errorf("phase spans changed the attribution:\n got %+v\nwant %+v", rep, want)
	}
	if r := rep.Totals.ResidualNs; r < -3*int64(len(rep.Loops)) || r > 3*int64(len(rep.Loops)) {
		t.Errorf("attribution residual %d ns over %d loops, want rounding only", r, len(rep.Loops))
	}
	if !slices.ContainsFunc(rep.Loops, func(l analyze.Loop) bool { return l.Name == "phased" && l.Regions > 0 }) {
		t.Errorf("loops %+v hold no regions of the f3d job", rep.Loops)
	}
	ranked := map[string]int{}
	for _, e := range rep.Ranked {
		ranked[e.Name] = e.Calls
	}
	for _, g := range []string{"bc", "rhs", "residual", "sweep-jk", "sweep-l"} {
		if calls := ranked["phased/zone1/"+g]; calls != 3 {
			t.Errorf("ranked phased/zone1/%s has %d calls, want one a step (ranked %v)", g, calls, ranked)
		}
	}
}

// TestDashServed: the dashboard ships as one self-contained page.
func TestDashServed(t *testing.T) {
	ts := newTestServer(t, sched.Config{Procs: 2, QueueDepth: 4}, serverConfig{})
	code, hdr, body := ts.getFull("/dash")
	if code != http.StatusOK {
		t.Fatalf("GET /dash = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("Content-Type = %q", ct)
	}
	for _, want := range []string{"<!DOCTYPE html>", "trace?since=", "analyze", "X-Trace-Next"} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	// Self-contained: no external script/style/font references.
	for _, banned := range []string{"http://", "https://", "src=", "@import"} {
		if strings.Contains(body, banned) {
			t.Errorf("dashboard references external resource (%q)", banned)
		}
	}
}
