package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

// cmdCluster merges one or more node-tagged fleet timelines (f3dc
// -trace-out, f3dd GET /trace dumps) and runs the cross-node
// critical-path analysis: per-step exact-sum attribution
// (wall = compute + exchange + straggler + failover + collect),
// the straggler tally, and the exchange+barrier headline — the
// distributed analogue of the paper's synchronization overhead.
//
// Each argument is a JSONL path, plain or NAME=path. The NAME form
// tags events whose Node field is empty: a daemon's own /trace dump
// carries none, and NAME must be the ID the coordinator registered it
// under (f3dc: the worker URL), the name its step_rpc spans carry.
// The coordinator's events are the ones tagged obs.CoordNode. Exit 1
// means the attribution identity failed to close — time the
// coordinator cannot account for — which CI treats as a regression.
func cmdCluster(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracetool cluster", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "print the JSON report instead of the human-readable view")
	outPath := fs.String("o", "", "also write the JSON report to this path")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 {
		fmt.Fprintln(stderr, "tracetool cluster: need at least one timeline path ([name=]trace.jsonl, - for stdin)")
		return 2
	}

	var events []obs.Event
	for _, arg := range fs.Args() {
		name, path := "", arg
		if i := strings.IndexByte(arg, '='); i >= 0 {
			name, path = arg[:i], arg[i+1:]
		}
		batch, err := readTrace(path, stdin)
		if err != nil {
			fmt.Fprintf(stderr, "tracetool cluster: %v\n", err)
			return 2
		}
		if name != "" {
			for i := range batch {
				if batch[i].Node == "" {
					batch[i].Node = name
				}
			}
		}
		events = append(events, batch...)
	}

	rep := analyze.ClusterAnalyze(events)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(stderr, "tracetool cluster: %v\n", err)
			return 2
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "tracetool cluster: %v\n", err)
			return 2
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(stderr, "tracetool cluster: %v\n", err)
			return 2
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(stderr, "tracetool cluster: %v\n", err)
			return 2
		}
	} else {
		renderClusterReport(stdout, rep)
	}

	if err := analyze.CheckClusterClosure(rep); err != nil {
		fmt.Fprintf(stdout, "ATTRIBUTION OPEN: %v\n", err)
		return 1
	}
	return 0
}

// renderClusterReport prints the human-readable fleet diagnosis.
func renderClusterReport(w io.Writer, rep *analyze.ClusterReport) {
	ns := func(v int64) string { return time.Duration(v).String() }
	fmt.Fprintf(w, "fleet: %d events over %d node(s) %v, %d solve(s)\n",
		rep.Events, len(rep.Nodes), rep.Nodes, len(rep.Solves))
	if rep.Truncated {
		fmt.Fprintf(w, "WARNING: ring wraparound — events lost per node: %v; affected lanes degrade to \"plausible\"\n",
			rep.DroppedEvents)
	}
	fmt.Fprintf(w, "exchange+barrier share of wall: %.1f%% (the paper's sync-overhead term, distributed)\n",
		100*rep.ExchangeBarrierShare)

	for _, s := range rep.Solves {
		fmt.Fprintf(w, "\nsolve %s (job %q): %d step(s), wall %s, exchange+barrier %.1f%%",
			s.Trace, s.Job, s.Totals.Step, ns(s.Totals.WallNs), 100*s.ExchangeBarrierShare)
		if s.Partial {
			fmt.Fprint(w, " [plausible]")
		}
		fmt.Fprintln(w)

		fmt.Fprintf(w, "  %4s %10s %10s %10s %10s %10s %10s  %s\n",
			"step", "wall", "compute", "exchange", "straggler", "failover", "collect", "straggler node")
		for _, st := range s.Steps {
			who := st.Straggler
			if who == "" {
				who = "-"
			}
			if st.Verdict == "plausible" {
				who += " (plausible)"
			}
			fmt.Fprintf(w, "  %4d %10s %10s %10s %10s %10s %10s  %s\n",
				st.Step, ns(st.WallNs), ns(st.ComputeNs), ns(st.ExchangeNs),
				ns(st.StragglerNs), ns(st.FailoverNs), ns(st.CollectNs), who)
			if !st.Closed {
				fmt.Fprintf(w, "       OPEN: %s unaccounted\n", ns(-st.ResidualNs))
			}
		}

		if len(s.Stragglers) > 0 {
			fmt.Fprintln(w, "  stragglers (lockstep races lost):")
			for _, c := range s.Stragglers {
				fmt.Fprintf(w, "    %-24s %3d step(s)  %s lost\n", c.Node, c.Steps, ns(c.StragglerNs))
			}
		}
	}
}
