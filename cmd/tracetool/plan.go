package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/autopar/pipeline"
)

// cmdPlan renders the JSON from f3dd's GET /jobs/{id}/plan — the
// evidence-driven auto-parallelization plan — as a human-readable
// decision table with each loop's rationale.
func cmdPlan(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracetool plan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "tracetool plan: need exactly one plan path (or - for stdin)")
		return 2
	}
	var r io.Reader
	if fs.Arg(0) == "-" {
		r = stdin
	} else {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fmt.Fprintf(stderr, "tracetool plan: %v\n", err)
			return 2
		}
		defer f.Close()
		r = f
	}
	var jp pipeline.JobPlan
	if err := json.NewDecoder(r).Decode(&jp); err != nil {
		fmt.Fprintf(stderr, "tracetool plan: %v\n", err)
		return 2
	}
	if jp.Plan == nil {
		fmt.Fprintln(stderr, "tracetool plan: input carries no plan")
		return 2
	}
	renderPlan(stdout, &jp)
	return 0
}

// renderPlan prints one line per planned loop plus the rationale facts
// behind each decision, from the JSON shape GET /jobs/{id}/plan
// serves.
func renderPlan(w io.Writer, jp *pipeline.JobPlan) {
	fmt.Fprintf(w, "job %d", jp.ID)
	if jp.Name != "" {
		fmt.Fprintf(w, " (%s)", jp.Name)
	}
	if jp.State != "" {
		fmt.Fprintf(w, " state %s", jp.State)
	}
	p := jp.Plan
	fmt.Fprintf(w, ": plan for %d loop(s)", len(p.Loops))
	if p.Procs > 0 {
		fmt.Fprintf(w, " on %d procs", p.Procs)
	}
	if p.Source != "" {
		fmt.Fprintf(w, " (source %s)", p.Source)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "decisions: %d parallelize, %d merge, %d serial\n",
		p.Count(pipeline.Parallelize), p.Count(pipeline.Merge), p.Count(pipeline.Serial))

	for _, lp := range p.Loops {
		fmt.Fprintf(w, "\n%-24s %s", lp.Loop, lp.Action)
		if lp.Action == pipeline.Merge && lp.Group != "" {
			fmt.Fprintf(w, " into group %q", lp.Group)
		}
		fmt.Fprintln(w)
		for _, f := range lp.Rationale {
			val := ""
			if f.Value != 0 {
				val = fmt.Sprintf(" [%.3g]", f.Value)
			}
			fmt.Fprintf(w, "  %-14s %s%s\n", f.Kind, f.Detail, val)
		}
	}
}
