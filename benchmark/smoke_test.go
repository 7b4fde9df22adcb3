package main

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

// TestSmoke drives the real binaries end to end on a tiny scale: a
// handful of jobs through a live f3dd with spans recorded, and one
// two-step sharded solve through f3dc, with the output checks on.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches f3dd and f3dc")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	e, err := newEnv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer stopAllChildren()

	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	d, err := e.startDaemon("smoke", hc, "-procs", "2")
	if err != nil {
		t.Fatal(err)
	}
	tr := &tracing{rec: &recorder{}, epoch: time.Now()}
	jobs := genBlock("serve_small", 1, 0)[:9]
	jobs = append(jobs, f3dSpec(dims{17, 13, 11, "small"}, 3))
	for i := range jobs {
		body, _ := json.Marshal(&jobs[i])
		res := runJob(hc, d.url, &jobs[i], body, tr)
		if !res.ok {
			t.Fatalf("job %d (%s): %s", i, jobs[i].Kind, res.err)
		}
		if res.polls < 1 || res.submitNs <= 0 || res.latency() <= 0 {
			t.Errorf("job %d: polls=%d submit=%dns latency=%s", i, res.polls, res.submitNs, res.latency())
		}
	}
	roots, err := checkClosure(tr.rec.all())
	if err != nil || roots != len(jobs) {
		t.Errorf("span closure: %d roots (want %d), %v", roots, len(jobs), err)
	}
	if v := scrapeCounter(hc, d.url, "sched_completed_total"); int(v) != len(jobs) {
		t.Errorf("sched_completed_total = %g, want %d", v, len(jobs))
	}
	if rssMB(d.pid()) <= 0 {
		t.Error("no RSS reading for the daemon")
	}
	d.stop()
	select {
	case <-d.waited:
	default:
		t.Error("stop returned before the daemon exited")
	}

	// One two-step solve over W workers against the same solve on one.
	c, err := newClusterRun(e, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if err := c.setup(hc); err != nil { // starts the workers, runs the two-step solve, checks it
		t.Fatal(err)
	}
	if len(c.workers) != clusterWorkers() || len(c.setupS) != 1 || c.setupS[0] <= 0 {
		t.Errorf("setup: %d workers, samples %v", len(c.workers), c.setupS)
	}
	multi := c.runF3DC(solveDirect, 0, clusterWarmupSteps, urls(c.workers))
	single := c.runF3DC(solveSingle, 0, clusterWarmupSteps, c.workers[0].url)
	if multi.err != "" || single.err != "" {
		t.Fatalf("solves: %q, %q", multi.err, single.err)
	}
	if !sameHistory(multi.out.History, single.out.History) {
		t.Errorf("W-worker history %v differs from the 1-worker history %v", multi.out.History, single.out.History)
	}
	if multi.flops() <= 0 || multi.seconds() <= 0 {
		t.Errorf("solve accounting: %g flops in %gs", multi.flops(), multi.seconds())
	}
}
