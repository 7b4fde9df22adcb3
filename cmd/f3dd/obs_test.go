package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs/serve"
	"repro/internal/sched"
)

// get fetches a path and returns status and raw body.
func (ts *testServer) get(path string) (int, string) {
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
	return resp.StatusCode, string(b)
}

// TestMetricsPrometheusGolden scrapes a fresh daemon and compares the
// full exposition against a golden text: names, HELP/TYPE headers,
// ordering and zero values are all part of the contract a Prometheus
// scraper (and our CI) relies on.
func TestMetricsPrometheusGolden(t *testing.T) {
	ts := newTestServer(t, sched.Config{Procs: 4, QueueDepth: 8}, serverConfig{})
	code, body := ts.get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	want := `# HELP sched_submitted_total Jobs admitted to the queue.
# TYPE sched_submitted_total counter
sched_submitted_total 0
# HELP sched_rejected_total Submissions refused (queue full or draining).
# TYPE sched_rejected_total counter
sched_rejected_total 0
# HELP sched_completed_total Jobs that finished successfully.
# TYPE sched_completed_total counter
sched_completed_total 0
# HELP sched_failed_total Jobs that returned an error or panicked.
# TYPE sched_failed_total counter
sched_failed_total 0
# HELP sched_canceled_total Jobs canceled while queued or running.
# TYPE sched_canceled_total counter
sched_canceled_total 0
# HELP sched_timed_out_total Jobs whose run deadline expired.
# TYPE sched_timed_out_total counter
sched_timed_out_total 0
# HELP sched_canceled_queued_total Canceled jobs that never received processors.
# TYPE sched_canceled_queued_total counter
sched_canceled_queued_total 0
# HELP sched_panics_total Failed jobs whose cause was a panic.
# TYPE sched_panics_total counter
sched_panics_total 0
# HELP sched_resizes_total Grant resizes applied at job checkpoints.
# TYPE sched_resizes_total counter
sched_resizes_total 0
# HELP sched_preempts_total Shrink requests issued to admit queued work.
# TYPE sched_preempts_total counter
sched_preempts_total 0
# HELP sched_done_sync_events_total Synchronization events of finished jobs' teams.
# TYPE sched_done_sync_events_total counter
sched_done_sync_events_total 0
# HELP sched_max_inuse_procs High-water mark of processors in use.
# TYPE sched_max_inuse_procs gauge
sched_max_inuse_procs 0
# HELP sched_grant_procs Processor counts at grant and applied resize (plateau occupancy).
# TYPE sched_grant_procs histogram
sched_grant_procs_bucket{le="1"} 0
sched_grant_procs_bucket{le="2"} 0
sched_grant_procs_bucket{le="4"} 0
sched_grant_procs_bucket{le="8"} 0
sched_grant_procs_bucket{le="16"} 0
sched_grant_procs_bucket{le="32"} 0
sched_grant_procs_bucket{le="64"} 0
sched_grant_procs_bucket{le="128"} 0
sched_grant_procs_bucket{le="+Inf"} 0
sched_grant_procs_sum 0
sched_grant_procs_count 0
# HELP sched_procs Processor budget space-shared across jobs.
# TYPE sched_procs gauge
sched_procs 4
# HELP sched_free_procs Processors not accounted to any job.
# TYPE sched_free_procs gauge
sched_free_procs 4
# HELP sched_inuse_procs Processors granted to running jobs.
# TYPE sched_inuse_procs gauge
sched_inuse_procs 0
# HELP sched_queue_depth Jobs admitted and waiting for processors.
# TYPE sched_queue_depth gauge
sched_queue_depth 0
# HELP sched_running_jobs Jobs started and not yet ended, parked jobs (which hold no processors) included.
# TYPE sched_running_jobs gauge
sched_running_jobs 0
# HELP sched_sync_events_total Synchronization events across finished and running jobs' teams.
# TYPE sched_sync_events_total gauge
sched_sync_events_total 0
# HELP trace_enabled Whether the sync-event tracer is recording (0/1).
# TYPE trace_enabled gauge
trace_enabled 0
# HELP trace_events Events currently held in the trace ring buffer.
# TYPE trace_events gauge
trace_events 0
# HELP trace_events_dropped Events overwritten in the ring before export.
# TYPE trace_events_dropped gauge
trace_events_dropped 0
`
	if body != want {
		t.Errorf("GET /metrics golden mismatch.\ngot:\n%s\nwant:\n%s", body, want)
	}
}

// TestMetricsReflectWork runs a job and checks the Prometheus view
// moves with it.
func TestMetricsReflectWork(t *testing.T) {
	ts := newTestServer(t, sched.Config{Procs: 4, QueueDepth: 8}, serverConfig{})
	var st sched.JobStatus
	if code := ts.do("POST", "/jobs", map[string]any{
		"kind": "synthetic", "parallelism": 4, "steps": 3, "work_cycles": 1000.0,
	}, &st); code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d", code)
	}
	ts.waitState(st.ID, sched.StateDone)

	_, body := ts.get("/metrics")
	for _, line := range []string{
		"sched_submitted_total 1",
		"sched_completed_total 1",
		`sched_grant_procs_bucket{le="4"} 1`,
		"sched_grant_procs_count 1",
		"sched_procs 4",
	} {
		if !strings.Contains(body, line+"\n") {
			t.Errorf("/metrics missing %q after a completed job:\n%s", line, body)
		}
	}
}

// TestTraceEndpoints drives the full tracing workflow over HTTP:
// enable, run a job, dump JSONL, disable with reset.
func TestTraceEndpoints(t *testing.T) {
	ts := newTestServer(t, sched.Config{Procs: 4, QueueDepth: 8}, serverConfig{})

	// Tracing starts disabled; a scrape says so.
	if _, body := ts.get("/metrics"); !strings.Contains(body, "trace_enabled 0\n") {
		t.Error("tracer reported enabled before POST /trace/enable")
	}
	var status serve.TraceStatus
	if code := ts.do("POST", "/trace/enable", nil, &status); code != http.StatusOK || !status.Enabled {
		t.Fatalf("POST /trace/enable = %d, status %+v", code, status)
	}

	var st sched.JobStatus
	if code := ts.do("POST", "/jobs", map[string]any{
		"kind": "synthetic", "name": "traced-job", "parallelism": 4, "steps": 2,
		"work_cycles": 8e5, "work_scale": 1.25e-3, // clears the two-fork bar, spins 1 000
	}, &st); code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d", code)
	}
	ts.waitState(st.ID, sched.StateDone)

	code, body := ts.get("/trace")
	if code != http.StatusOK {
		t.Fatalf("GET /trace = %d", code)
	}
	kinds := make(map[string]int)
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		var e map[string]any
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("trace line %q is not JSON: %v", sc.Text(), err)
		}
		kinds[e["kind"].(string)]++
		if name, ok := e["name"].(string); ok && name != "traced-job" {
			t.Errorf("trace event for %q, want traced-job", name)
		}
	}
	if kinds["grant"] != 1 {
		t.Errorf("trace has %d grant events, want 1 (kinds: %v)", kinds["grant"], kinds)
	}
	if kinds["region_end"] == 0 {
		t.Errorf("trace has no region_end events (kinds: %v)", kinds)
	}

	// Disable with reset: ring drains and recording stops.
	off := false
	if code := ts.do("POST", "/trace/enable", map[string]any{"enabled": off, "reset": true}, &status); code != http.StatusOK {
		t.Fatalf("POST /trace/enable (off) = %d", code)
	}
	if status.Enabled || status.Events != 0 {
		t.Errorf("after disable+reset: %+v", status)
	}
	if _, body := ts.get("/trace"); strings.TrimSpace(body) != "" {
		t.Errorf("trace not empty after reset: %q", body)
	}

	// Unknown fields are rejected.
	var errBody map[string]string
	if code := ts.do("POST", "/trace/enable", map[string]any{"bogus": 1}, &errBody); code != http.StatusBadRequest {
		t.Errorf("POST /trace/enable with bogus field = %d, want 400", code)
	}

	// The ring is read by its cursor only: there is no SSE tail.
	if code, _ := ts.get("/trace/stream"); code != http.StatusNotFound {
		t.Errorf("GET /trace/stream = %d, want 404", code)
	}
}

// TestConcurrentScrapes hammers every read endpoint while jobs run;
// with -race this is the proof the snapshot paths take no unlocked
// reads of scheduler state.
func TestConcurrentScrapes(t *testing.T) {
	ts := newTestServer(t, sched.Config{Procs: 4, QueueDepth: 16}, serverConfig{})
	var status serve.TraceStatus
	if code := ts.do("POST", "/trace/enable", nil, &status); code != http.StatusOK {
		t.Fatalf("POST /trace/enable = %d", code)
	}

	var ids []uint64
	for i := 0; i < 6; i++ {
		var st sched.JobStatus
		if code := ts.do("POST", "/jobs", map[string]any{
			"kind": "synthetic", "name": fmt.Sprintf("j%d", i),
			"parallelism": 4, "steps": 50, "work_cycles": 20000.0,
		}, &st); code != http.StatusAccepted {
			t.Fatalf("POST /jobs = %d", code)
		}
		ids = append(ids, st.ID)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				for _, p := range []string{"/metrics", "/healthz", "/trace", "/jobs"} {
					if code, _ := ts.get(p); code != http.StatusOK {
						t.Errorf("GET %s = %d", p, code)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, id := range ids {
		ts.waitState(id, sched.StateDone)
	}
}
