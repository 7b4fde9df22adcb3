// Command benchdump evaluates the repository's deterministic gates —
// the synchronization structure of the paper's Examples 1-3, the
// tuned kernels' allocation zeros and their tuned-vs-scalar speedup
// ratios — writes them as a schema-versioned JSON report and compares
// them with a committed baseline. It has one mode and reports no time:
// wall-clock quantities are measured, with spread, by benchmark/.
//
// Usage:
//
//	benchdump [-baseline bench_baseline.json] [-out bench_report.json]
//	          [-trace-out example3_trace.jsonl]
//
// With -baseline the process exits 1 if a series of the baseline is
// missing, not finite, differs at all (counts and zeros) or is worse
// by more than 20 % (the ratios, whose two sides run in this process).
// Exit 2 means the tool itself could not run. To re-baseline, run
// with -out bench_baseline.json and no -baseline.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/obs"
)

func main() { os.Exit(run()) }

func run() int {
	baseline := flag.String("baseline", "", "baseline report to gate against (empty = record only)")
	out := flag.String("out", "bench_report.json", "report output path")
	traceOut := flag.String("trace-out", "", "write a traced run of the Example 3 hoisted loop here as JSONL (for tracetool)")
	flag.Parse()

	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	fail := func(err error) int {
		logf("benchdump: %v", err)
		return 2
	}

	var base Report
	if *baseline != "" {
		var err error
		if base, err = loadReport(*baseline); err != nil {
			return fail(err)
		}
	}

	f := newFixtures()
	defer f.close()
	report := Report{Schema: schemaVersion, Go: runtime.Version(), Series: runSeries(f, base, logf)}
	regs := compare(base, report)
	for _, r := range regs {
		logf("REGRESSED %s", r)
	}
	if err := writeReport(*out, report); err != nil {
		return fail(err)
	}
	logf("wrote %s (%d series)", *out, len(report.Series))
	if *traceOut != "" {
		if err := writeExample3Trace(*traceOut, f); err != nil {
			return fail(err)
		}
		logf("wrote %s", *traceOut)
	}

	if len(regs) > 0 {
		logf("benchdump: %d of %d baseline series regressed against %s", len(regs), len(base.Series), *baseline)
		return 1
	}
	if *baseline != "" {
		logf("all %d baseline series hold against %s", len(base.Series), *baseline)
	}
	return 0
}

// writeExample3Trace runs the Example 3 hoisted loop once under an
// enabled tracer and dumps the events: a small real trace for CI to
// push through tracetool analyze and convert.
func writeExample3Trace(path string, f *fixtures) error {
	tr := obs.NewTracer(1024, nil)
	f.team.SetTracer(tr, "example3")
	tr.Enable()
	f.e3Hoisted()
	tr.Disable()
	f.team.SetTracer(nil, "")

	w, err := os.Create(path)
	if err != nil {
		return err
	}
	events, _ := tr.EventsSince(0) // a wrapped ring leads with its drop marker
	if err := obs.WriteEventsJSONL(w, events); err != nil {
		w.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return w.Close()
}
