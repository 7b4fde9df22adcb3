// Command tracetool is the offline companion to the f3dd /analyze
// endpoint: it runs the trace-analysis engine (internal/obs/analyze)
// over JSONL traces exported from GET /trace, f3dc -trace-out or any
// obs.Tracer dump.
//
// Usage:
//
//	tracetool analyze [-label L] [-json] trace.jsonl
//	tracetool convert [-o out.json] trace.jsonl
//	tracetool cluster [-json] [-o report.json] [NAME=]fleet.jsonl...
//
// analyze prints the human-readable diagnosis (critical path, Amdahl
// attribution, stair-step plateaus, sync-budget verdicts at Table 1's
// break-even with the host's model.RegionNs, the ranked profile with
// the solver step's phase spans) or, with -json, the JSON report.
// convert renders the trace in the Chrome trace-event format, which
// chrome://tracing, Perfetto and speedscope.app all open. cluster
// merges node-tagged fleet timelines (f3dc -trace-out, per-daemon
// /trace dumps named by the worker ID f3dc registered, its URL) and
// prints the cross-node critical path — per-step attribution,
// straggler tally, exchange+barrier share — exiting 1 when the
// attribution identity fails to close. A "-" input path reads stdin.
// Exit 2 means the tool could not run (bad flags, unreadable input).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main with injectable streams, so the CLI is testable
// in-process.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		fmt.Fprintln(stderr, "tracetool: need a subcommand: analyze, convert or cluster")
		return 2
	}
	switch args[0] {
	case "analyze":
		return cmdAnalyze(args[1:], stdin, stdout, stderr)
	case "convert":
		return cmdConvert(args[1:], stdin, stdout, stderr)
	case "cluster":
		return cmdCluster(args[1:], stdin, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "tracetool: unknown subcommand %q (want analyze, convert or cluster)\n", args[0])
		return 2
	}
}

// readTrace loads a JSONL trace from path ("-" = stdin).
func readTrace(path string, stdin io.Reader) ([]obs.Event, error) {
	var r io.Reader
	if path == "-" {
		r = stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return obs.ReadJSONL(r)
}

func cmdAnalyze(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracetool analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	label := fs.String("label", "", "label stamped into the report")
	jsonOut := fs.Bool("json", false, "print the JSON report instead of the human-readable view")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "tracetool analyze: need exactly one trace path (or - for stdin)")
		return 2
	}
	events, err := readTrace(fs.Arg(0), stdin)
	if err != nil {
		fmt.Fprintf(stderr, "tracetool analyze: %v\n", err)
		return 2
	}
	rep := analyze.Analyze(events)
	rep.Label = *label
	if *jsonOut {
		if err := encodeReport(stdout, rep); err != nil {
			fmt.Fprintf(stderr, "tracetool analyze: %v\n", err)
			return 2
		}
		return 0
	}
	renderReport(stdout, rep)
	return 0
}

func cmdConvert(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracetool convert", flag.ContinueOnError)
	fs.SetOutput(stderr)
	outPath := fs.String("o", "", "output path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "tracetool convert: need exactly one trace path (or - for stdin)")
		return 2
	}
	events, err := readTrace(fs.Arg(0), stdin)
	if err != nil {
		fmt.Fprintf(stderr, "tracetool convert: %v\n", err)
		return 2
	}

	var out io.Writer = stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(stderr, "tracetool convert: %v\n", err)
			return 2
		}
		defer f.Close()
		out = f
	}
	if err := analyze.WriteChromeTrace(out, events); err != nil {
		fmt.Fprintf(stderr, "tracetool convert: %v\n", err)
		return 2
	}
	return 0
}
