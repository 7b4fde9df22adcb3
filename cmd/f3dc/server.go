package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/serve"
)

// workerRef pairs a registered worker's id with its HTTP client, so
// the observability server can scrape it.
type workerRef struct {
	id     string
	client *cluster.HTTPClient
}

// newObsServer is the coordinator's observability surface, mounted when
// f3dc runs with -serve: the internal/obs/serve routes it can honour,
// plus its own /healthz.
//
//	GET /metrics  fleet rollup: the coordinator's own counters plus
//	              every worker's scraped exposition, each sample
//	              relabeled with worker="<id>"
//	GET /trace    the merged node-tagged fleet timeline as JSONL
//	              (pulls every worker's cursor first); it has no
//	              cursor of its own, so ?since= is a 400
//	GET /analyze  the cluster critical-path report (cross-node
//	              per-step attribution, stragglers, closure)
//	GET /dash     the shared dashboard, rendering that report
//	GET /healthz  liveness, with the live-worker count
func newObsServer(coord *cluster.Coordinator, col *cluster.Collector, workers []workerRef) *http.ServeMux {
	timeline := func() []obs.Event {
		col.Pull()
		return col.Timeline()
	}
	mux := http.NewServeMux()
	serve.Surface{
		Metrics: func(w io.Writer) error {
			return writeFleetMetrics(w, coord.Metrics(), workers)
		},
		Timeline: timeline,
		Analyze: func(*http.Request) any {
			return analyze.ClusterAnalyze(timeline())
		},
	}.Mount(mux)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"status": "ok", "workers": len(coord.Live()),
		})
	})
	return mux
}

// writeFleetMetrics rolls the fleet up into one exposition: the
// coordinator's registry verbatim, then each worker's scrape with
// every sample relabeled worker="<id>". Worker HELP/TYPE comments are
// dropped — the families would repeat per worker — so worker samples
// arrive untyped, which Prometheus accepts. Unreachable workers are
// skipped with a marker gauge rather than failing the whole scrape.
func writeFleetMetrics(w io.Writer, reg *obs.Registry, workers []workerRef) error {
	if err := reg.WritePrometheus(w); err != nil {
		return err
	}
	for _, wk := range workers {
		text, err := wk.client.FetchMetrics()
		up := 1
		if err != nil {
			up = 0
		}
		fmt.Fprintf(w, "cluster_worker_up{worker=%q} %d\n", wk.id, up)
		if err == nil {
			relabelExposition(w, text, wk.id)
		}
	}
	return nil
}

// relabelExposition copies the sample lines of a Prometheus text
// exposition, injecting a worker label into each; comments and blank
// lines are dropped.
func relabelExposition(w io.Writer, text, worker string) {
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			if line[i] == '{' {
				fmt.Fprintf(w, "%s{worker=%q,%s\n", line[:i], worker, line[i+1:])
			} else {
				fmt.Fprintf(w, "%s{worker=%q}%s\n", line[:i], worker, line[i:])
			}
		}
	}
}
