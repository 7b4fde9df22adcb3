package sched

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestTracerSeesGrantAndRegionEvents runs one parallel job with the
// tracer enabled and checks the scheduler- and team-level events come
// out tagged with the job's name.
func TestTracerSeesGrantAndRegionEvents(t *testing.T) {
	tr := obs.NewTracer(4096, nil)
	tr.Enable()
	s := New(Config{Procs: 4, Tracer: tr})
	defer s.Close()

	job := NewFuncJob("traced", 4, func(g *Grant) error {
		for step := 0; step < 3; step++ {
			if err := g.Checkpoint(); err != nil {
				return err
			}
			g.Team().For(8, func(i int) {})
		}
		return nil
	})
	h, err := s.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	var grants, regions, chunks int
	for _, e := range tr.Events() {
		if e.Name != "traced" {
			t.Errorf("event %v labeled %q, want job name", e.Kind, e.Name)
		}
		switch e.Kind {
		case obs.KindGrant:
			grants++
			if e.A != 4 || e.B != 4 {
				t.Errorf("grant event A=%d B=%d, want granted 4 of requested 4", e.A, e.B)
			}
		case obs.KindRegionEnd:
			regions++
		case obs.KindChunk:
			chunks++
		}
	}
	if grants != 1 {
		t.Errorf("grant events = %d, want 1", grants)
	}
	if regions != 3 {
		t.Errorf("region-end events = %d, want 3 (one per step)", regions)
	}
	if chunks == 0 {
		t.Error("no chunk spans recorded")
	}
}

// TestPreemptEmitsEventAndCounter drives the shrink-to-admit path and
// checks the preempt trace event and counter fire.
func TestPreemptEmitsEventAndCounter(t *testing.T) {
	tr := obs.NewTracer(4096, nil)
	tr.Enable()
	s := New(Config{Procs: 4, QueueDepth: 8, Tracer: tr})
	defer s.Close()

	// The big job issues regions until it has been shrunk, then waits to
	// be released, so its chunk spans cannot wrap the ring and drop the
	// one preempt event. It starts once the small job is queued: before
	// that, nothing would end its regions.
	queued, release := make(chan struct{}), make(chan struct{})
	big, err := s.Submit(NewFuncJob("big", 4, func(g *Grant) error {
		<-queued
		for g.Team().Workers() == 4 {
			g.Team().For(4, func(i int) {})
			if err := g.Checkpoint(); err != nil {
				return err
			}
		}
		<-release
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	// With all 4 processors held, a queued job forces a shrink request.
	small, err := s.Submit(NewFuncJob("small", 1, func(g *Grant) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	close(queued)
	if err := small.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := big.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	m := s.Metrics()
	if m.Preempts == 0 {
		t.Error("no preempts counted")
	}
	if m.Resizes == 0 {
		t.Error("no resizes counted")
	}
	var preempts, resizes int
	for _, e := range tr.Events() {
		switch e.Kind {
		case obs.KindPreempt:
			preempts++
			if e.Name != "big" {
				t.Errorf("preempt victim %q, want big", e.Name)
			}
		case obs.KindResize:
			resizes++
		}
	}
	if preempts == 0 || resizes == 0 {
		t.Errorf("trace: %d preempts, %d resizes, want both > 0", preempts, resizes)
	}
	if n := tr.Dropped(); n != 0 {
		t.Errorf("trace ring dropped %d events: its counts above are not the whole run", n)
	}
}

// TestMetricsMatchRegistry checks that the JSON Metrics snapshot and
// the Prometheus rendering agree — they are two views of one set of
// atomics.
func TestMetricsMatchRegistry(t *testing.T) {
	s := New(Config{Procs: 2})
	defer s.Close()
	for i := 0; i < 3; i++ {
		h, err := s.Submit(NewFuncJob("ok", 2, func(g *Grant) error {
			g.Team().For(4, func(int) {})
			return nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	m := s.Metrics()
	if m.Submitted != 3 || m.Completed != 3 {
		t.Fatalf("metrics %+v, want 3 submitted and completed", m)
	}
	var buf bytes.Buffer
	if err := s.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, line := range []string{
		"sched_submitted_total 3",
		"sched_completed_total 3",
		"sched_procs 2",
		"sched_queue_depth 0",
		"sched_running_jobs 0",
		`sched_grant_procs_bucket{le="2"} 3`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("prometheus output missing %q:\n%s", line, out)
		}
	}
	if m.SyncEvents == 0 {
		t.Error("no sync events recorded for parallel jobs")
	}
}
