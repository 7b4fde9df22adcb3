package chaos

import (
	"flag"
	"math"
	"os"
	"testing"

	"repro/internal/obs"
)

// -cluster-trace-out makes the traced soak write its merged fleet
// timeline as JSONL — CI uploads it and runs `tracetool cluster` over
// it, gating on attribution closure.
var clusterTraceOut = flag.String("cluster-trace-out", "", "write the traced cluster soak's merged timeline (JSONL) here")

// TestClusterSoak drives the sharded-solve engine through a seeded
// sequence of jobs with guaranteed node losses and probable slow
// links: every job must finish with the single-node history bitwise
// (ClusterSoak checks that internally) and every fired loss must have
// produced a failover. Tracing is on, so the soak also proves that one
// read of every ring after the last job covers all the jobs, and that
// the merged timeline's cross-node attribution closes for every one.
func TestClusterSoak(t *testing.T) {
	res, err := ClusterSoak(ClusterSoakConfig{Seed: 7, NodeLoss: 1, Trace: true})
	if err != nil {
		t.Fatalf("soak: %v", err)
	}
	if res.Jobs != 4 {
		t.Errorf("completed %d jobs, want 4", res.Jobs)
	}
	if res.Losses < 1 {
		t.Errorf("no node loss fired (losses=%d) — the failover path went untested", res.Losses)
	}
	if res.Failovers < res.Losses {
		t.Errorf("failovers %d < fired losses %d", res.Failovers, res.Losses)
	}
	if res.TraceReport == nil || !res.TraceReport.Closed {
		t.Fatalf("traced soak report missing or open: %+v", res.TraceReport)
	}
	if len(res.Timeline) == 0 {
		t.Fatal("traced soak produced an empty timeline")
	}
	t.Logf("soak: %d jobs, %d losses, %d slow links, %d failovers, %d events, ring drops %v",
		res.Jobs, res.Losses, res.SlowLinks, res.Failovers, len(res.Timeline), res.Dropped)

	if *clusterTraceOut != "" {
		f, err := os.Create(*clusterTraceOut)
		if err != nil {
			t.Fatalf("cluster-trace-out: %v", err)
		}
		if err := obs.WriteEventsJSONL(f, res.Timeline); err != nil {
			f.Close()
			t.Fatalf("cluster-trace-out: %v", err)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("cluster-trace-out: %v", err)
		}
		t.Logf("wrote %d events to %s", len(res.Timeline), *clusterTraceOut)
	}
}

// TestClusterSoakDeterministic: the same seed reproduces the same
// histories, losses and failovers exactly — with tracing enabled on
// one side only, which must not perturb the solve.
func TestClusterSoakDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("second soak run skipped in -short")
	}
	a, err := ClusterSoak(ClusterSoakConfig{Seed: 99, NodeLoss: 1, Trace: true})
	if err != nil {
		t.Fatalf("run A: %v", err)
	}
	b, err := ClusterSoak(ClusterSoakConfig{Seed: 99, NodeLoss: 1})
	if err != nil {
		t.Fatalf("run B: %v", err)
	}
	if a.Losses != b.Losses || a.SlowLinks != b.SlowLinks || a.Failovers != b.Failovers {
		t.Fatalf("fault accounting diverged: %+v vs %+v", a, b)
	}
	for job, ha := range a.Histories {
		hb, ok := b.Histories[job]
		if !ok || len(ha) != len(hb) {
			t.Fatalf("job %s histories differ in shape", job)
		}
		for i := range ha {
			if math.Float64bits(ha[i].Residual) != math.Float64bits(hb[i].Residual) {
				t.Fatalf("job %s step %d residual differs across identical seeds", job, i)
			}
		}
	}
}
