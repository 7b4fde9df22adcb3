// Command f3dc is the cluster coordinator CLI: it shards one
// multi-zone F3D solve across a fleet of f3dd worker daemons and
// reassembles the convergence history, which must be bitwise the
// history a single node would have produced (the distributed form of
// the paper's unchanged-convergence claim).
//
// Usage:
//
//	f3dc -workers URL[,URL...] [-n 33] [-kmax 25] [-lmax 21]
//	     [-cuts 11,22] [-steps 10] [-pulse 0.02] [-job NAME]
//	     [-checkpoint-every N] [-timeout D] [-q]
//	     [-trace] [-trace-buf N] [-trace-out FILE]
//
// The case is an n×kmax×lmax box stacked into zones along J at the
// given cut planes (two-point overlap, as F3D zones share boundary
// planes). Each worker URL is the root of an f3dd daemon; the
// coordinator probes /healthz once and registers only the daemons that
// answer, so a draining one is never routed to, then drives POST
// /shards/{create,step,release} in lockstep. A worker is lost when a
// create or a step finds it down (unreachable, its shard gone, or no
// answer within -timeout): the solve rolls back to its checkpoint and
// re-shards over the survivors, and the history still reproduces the
// single-node solve bitwise. Any other error a worker answers fails the
// solve.
//
// The result is printed as JSON on stdout: the per-step history plus
// the shard plan and failover count. Exit status 1 means the solve
// (or a flag) failed.
//
// With -trace the coordinator traces its side of the solve, switches
// every worker's ring on for a clean window, and after the solve reads
// each worker's whole ring once over GET /trace and merges everything
// into one node-tagged fleet timeline (cluster.ReadTimeline): a
// worker's events are tagged with its URL as given to -workers, the
// coordinator's own with `coord` (obs.CoordNode). Each process's
// timestamps stay on its own clock: the report is built from durations.
// A worker whose ring cannot be read is logged and left out; its steps
// read plausible.
// -trace-out writes it as JSONL, the one place a finished fleet solve
// is read from: `tracetool cluster FILE` prints its cross-node
// critical path (-json for the report). f3dc exits when the solve
// ends; a live worker's ring is read from its own /trace cursor.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/f3d"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/simclock"
)

// options collects the CLI flags; run is pure in them so tests can
// drive the whole binary short of main.
type options struct {
	workers       string
	n, kmax, lmax int
	cuts          string
	steps         int
	pulse         float64
	job           string
	ckpt          int
	timeout       time.Duration
	quiet         bool

	trace    bool
	traceBuf int
	traceOut string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("f3dc: ")

	var o options
	flag.StringVar(&o.workers, "workers", "", "comma-separated f3dd base URLs (required)")
	flag.IntVar(&o.n, "n", 33, "global J extent of the stacked case")
	flag.IntVar(&o.kmax, "kmax", 25, "K extent")
	flag.IntVar(&o.lmax, "lmax", 21, "L extent")
	flag.StringVar(&o.cuts, "cuts", "11,22", "comma-separated J cut planes (zone boundaries)")
	flag.IntVar(&o.steps, "steps", 10, "lockstep time steps")
	flag.Float64Var(&o.pulse, "pulse", 0.02, "initial pulse amplitude")
	flag.StringVar(&o.job, "job", "f3dc", "workload key (live workers are ranked by a hash of it)")
	flag.IntVar(&o.ckpt, "checkpoint-every", 0, "checkpoint cadence in steps (0 = every step, <0 = never)")
	flag.DurationVar(&o.timeout, "timeout", 30*time.Second, "per-request HTTP timeout")
	flag.BoolVar(&o.quiet, "q", false, "suppress progress logging on stderr")
	flag.BoolVar(&o.trace, "trace", false, "trace the solve: enable worker tracing, collect the fleet timeline")
	flag.IntVar(&o.traceBuf, "trace-buf", 65536, "coordinator trace ring capacity (events)")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the merged node-tagged fleet timeline (JSONL) here")
	flag.Parse()

	if err := run(os.Stdout, o); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer, o options) error {
	urls := splitList(o.workers)
	if len(urls) == 0 {
		return fmt.Errorf("no workers: pass -workers URL[,URL...]")
	}
	spec, err := buildSpec(o)
	if err != nil {
		return err
	}

	var tracer *obs.Tracer
	if o.trace {
		tracer = obs.NewTracer(o.traceBuf, simclock.Real{})
		tracer.Enable()
	}
	coord := cluster.New(cluster.Config{Tracer: tracer})
	sources := map[string]cluster.TraceSource{}
	httpc := &http.Client{Timeout: o.timeout}
	workers := 0
	for _, u := range urls {
		client := &cluster.HTTPClient{BaseURL: u, Client: httpc}
		if err := client.Ping(); err != nil {
			if !o.quiet {
				log.Printf("worker %s not ready, skipping: %v", u, err)
			}
			continue
		}
		if err := coord.Register(u, client); err != nil {
			return fmt.Errorf("register %s: %w", u, err)
		}
		if o.trace {
			// Switch the worker's ring on for a clean window; a daemon
			// without the trace API still solves, it just contributes
			// no worker-side spans (the report degrades to plausible).
			if err := client.SetTrace(true, true); err != nil && !o.quiet {
				log.Printf("worker %s: enabling trace: %v", u, err)
			}
			sources[u] = client
		}
		workers++
	}
	if workers == 0 {
		return fmt.Errorf("none of the %d workers answered /healthz", len(urls))
	}
	if !o.quiet {
		log.Printf("solving %q: %d zones x %d steps over %d/%d workers",
			o.job, len(spec.Config.Case.Zones), o.steps, workers, len(urls))
	}

	res, err := coord.Solve(spec)
	if err != nil {
		return fmt.Errorf("solve: %w", err)
	}
	if !o.quiet {
		log.Printf("done: %d steps, %d shards, %d failovers",
			len(res.History), len(res.Groups), res.Failovers)
	}

	if o.trace {
		timeline, err := cluster.ReadTimeline(tracer, sources)
		if err != nil && !o.quiet {
			log.Print(err)
		}
		if o.traceOut != "" {
			if err := writeTimeline(o.traceOut, timeline); err != nil {
				return err
			}
		}
		if !o.quiet {
			rep := analyze.ClusterAnalyze(timeline)
			log.Printf("trace %s: closed=%v exchange+barrier share %.1f%%",
				res.Trace, rep.Closed, 100*rep.ExchangeBarrierShare)
		}
	}

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Job   string `json:"job"`
		Zones int    `json:"zones"`
		cluster.SolveResult
	}{Job: o.job, Zones: len(spec.Config.Case.Zones), SolveResult: res})
}

// buildSpec turns the flag set into the sharded solve spec: the
// stacked multi-zone case plus the lockstep parameters.
func buildSpec(o options) (cluster.SolveSpec, error) {
	cuts, err := parseCuts(o.cuts, o.n)
	if err != nil {
		return cluster.SolveSpec{}, err
	}
	c, ifaces := f3d.StackAlongJ(o.job, o.n, o.kmax, o.lmax, cuts)
	cfg := f3d.DefaultConfig(c)
	cfg.Interfaces = ifaces
	return cluster.SolveSpec{
		Job:             o.job,
		Config:          cfg,
		PulseAmp:        o.pulse,
		Steps:           o.steps,
		CheckpointEvery: o.ckpt,
	}, nil
}

// writeTimeline dumps a merged fleet timeline as JSONL.
func writeTimeline(path string, events []obs.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := obs.WriteEventsJSONL(f, events); err != nil {
		f.Close()
		return fmt.Errorf("trace-out: %w", err)
	}
	return f.Close()
}

// splitList splits a comma-separated flag, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseCuts parses and validates the -cuts flag against the case's J
// extent, mirroring f3d.StackAlongJ's rule (every zone keeps at least
// four J-planes) so a bad flag is an error, not a panic.
func parseCuts(s string, n int) ([]int, error) {
	parts := splitList(s)
	if len(parts) == 0 {
		return nil, fmt.Errorf("need at least one J cut plane (-cuts)")
	}
	cuts := make([]int, len(parts))
	prev := 0
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad cut %q: %v", p, err)
		}
		if v < prev+2 || v > n-4 {
			return nil, fmt.Errorf("cut %d out of range: want [%d, %d] for n=%d", v, prev+2, n-4, n)
		}
		cuts[i], prev = v, v
	}
	return cuts, nil
}
