// Command benchmark is the repo's end-to-end performance benchmark. It
// builds the real f3dd and f3dc binaries, launches them as child
// processes on loopback, and drives them from one closed-loop load
// generator over four seeded workloads; see README.md beside this file.
//
// One run measures one workload (the contract BENCHMARK.json states):
//
//	bash benchmark/run.sh --workload serve_mix --seed 1 --seconds 20 --trace 0
//
// prints the end-to-end metrics, and --trace 1 the per-layer metrics,
// as one JSON object on the last line of standard output. Without
// --workload every workload runs in turn (-traced adds the traced pass).
// -compare A.jsonl B.jsonl judges two result files against the bounds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricValue is one reported number. Lo and Hi are the spread of the
// samples behind a median (min and max over the run's rounds), absent
// for single values. Raw is an end-to-end metric as measured, before it
// was rescaled to the reference host (host.go).
type metricValue struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Lo    *float64 `json:"lo,omitempty"`
	Hi    *float64 `json:"hi,omitempty"`
	Raw   *float64 `json:"raw,omitempty"`
}

// metricSet collects a run's metrics by name. Setting a name the tables
// in metrics.go do not define is a bug in the benchmark.
type metricSet map[string]*metricValue

func (m metricSet) set(name string, v float64) {
	d, ok := findDef(name)
	if !ok {
		panic("benchmark: metric " + name + " is not defined in metrics.go")
	}
	m[name] = &metricValue{Value: v, Unit: d.Unit}
}

// setSpread reports the median of samples with their min and max.
func (m metricSet) setSpread(name string, samples []float64) {
	m.set(name, median(samples))
	if len(samples) > 1 {
		lo, hi := minMax(samples)
		m[name].Lo, m[name].Hi = &lo, &hi
	}
}

// record is one run's result: the line -out appends and -compare reads.
type record struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     int     `json:"trace"`
	Procs     int     `json:"procs"`
	Workers   int     `json:"workers"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	FirstErr  string  `json:"first_error,omitempty"`
	// HostSlowness is the run's host index (1 = the reference host);
	// the end-to-end metrics are already rescaled by it.
	HostSlowness float64   `json:"host_slowness"`
	HostFPMs     float64   `json:"host_fp_ms"`
	HostMemMs    float64   `json:"host_mem_ms"`
	HostSamples  int       `json:"host_samples"`
	Metrics      metricSet `json:"metrics"`
}

// contractLine is the last line of standard output: exactly the keys
// the driver reads.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]contractVal `json:"metrics"`
}

type contractVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "run one workload (serve_solo, serve_mix, serve_small, cluster_solve); empty runs all four")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced pass and its per-layer metrics")
		traced   = flag.Bool("traced", false, "without -workload: run the traced pass after the untraced one")
		out      = flag.String("out", "", "append each run's record to this JSON-lines file")
		compare  = flag.Bool("compare", false, "compare two result files: -compare A.jsonl B.jsonl")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as generated from the metric tables")
	)
	flag.Parse()

	switch {
	case *manifest:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(buildManifest()); err != nil {
			return fail(err)
		}
		return 0
	case *compare:
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fail(fmt.Errorf("need -seconds > 0 and -trace 0 or 1"))
	}

	defer stopAllChildren()
	defer stopChildrenOnSignal()()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Minute)
	defer cancel()
	e, err := newEnv(ctx)
	if err != nil {
		return fail(err)
	}

	type pass struct {
		workload string
		trace    int
	}
	var passes []pass
	if *workload != "" {
		passes = []pass{{*workload, *trace}}
	} else {
		for _, w := range workloadDefs {
			passes = append(passes, pass{w.Name, *trace})
		}
		if *traced && *trace == 0 {
			for _, w := range workloadDefs {
				passes = append(passes, pass{w.Name, 1})
			}
		}
	}
	code := 0
	for _, p := range passes {
		rec, err := runWorkload(e, p.workload, *seed, *seconds, p.trace == 1)
		if err != nil {
			return fail(err)
		}
		printTable(rec)
		path := filepath.Join(e.outDir, fmt.Sprintf("result-%s-trace%d.json", rec.Workload, rec.Trace))
		if err := writeRecord(path, rec, false); err != nil {
			return fail(err)
		}
		if *out != "" {
			if err := writeRecord(*out, rec, true); err != nil {
				return fail(err)
			}
		}
		if !rec.Correct {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d operations failed: %s\n", rec.Workload, rec.Failed, rec.Attempted, rec.FirstErr)
			code = 1
		}
		if *workload != "" {
			line := contractLine{rec.Correct, rec.Attempted, rec.Failed, map[string]contractVal{}}
			for name, v := range rec.Metrics {
				line.Metrics[name] = contractVal{v.Value, v.Unit}
			}
			b, err := json.Marshal(line)
			if err != nil {
				return fail(err)
			}
			fmt.Println(string(b))
		}
	}
	return code
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

// runWorkload runs one pass of one workload and assembles its record:
// every end-to-end metric for an untraced pass, every per-layer metric
// (0 where a metric does not apply to the workload) for a traced one.
func runWorkload(e *env, name string, seed int64, seconds float64, traced bool) (*record, error) {
	rec := &record{Workload: name, Seed: seed, Seconds: seconds, Procs: benchProcs(),
		Workers: clusterWorkers(), Metrics: metricSet{}}
	m := rec.Metrics
	// pass is what both kinds of run offer once they are over.
	var pass interface {
		tally() (attempted, failed int, firstErr string)
		endToEnd(metricSet)
		perLayer(metricSet)
	}
	var spans *recorder
	var host *hostMeter
	if w, ok := serveWorkloads(benchProcs())[name]; ok {
		run, err := runServe(e, w, seed, seconds, traced)
		if err != nil {
			return nil, err
		}
		pass, spans, host = run, run.rec, run.host
	} else if name == "cluster_solve" {
		run, err := runCluster(e, seed, seconds, traced)
		if err != nil {
			return nil, err
		}
		pass, spans, host = run, run.rec, run.host
	} else {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	rec.Attempted, rec.Failed, rec.FirstErr = pass.tally()
	// check counts one output check as an operation of the run.
	check := func(ok bool, what string) {
		rec.Attempted++
		if !ok {
			rec.Failed++
			rec.FirstErr = what
		}
	}

	if !traced {
		pass.endToEnd(m)
	} else {
		rec.Trace = 1
		pass.perLayer(m)
		if err := runProbes(m, benchProcs()); err != nil {
			return nil, err
		}
		if name == "serve_solo" {
			ok, err := probeBitwise(benchProcs())
			if err != nil {
				return nil, err
			}
			m.set("f3d.bitwise_ok", b2f(ok))
			check(ok, "f3d residual history at P processors differs from the 1-processor history")
		}
		all := spans.all()
		roots, err := checkClosure(all)
		closed := err == nil && roots > 0
		m.set("bench.span_closure_ok", b2f(closed))
		m.set("bench.spans", float64(len(all)))
		check(closed, fmt.Sprintf("span closure: %d roots, %v", roots, err))
		if err := spans.writeJSONL(filepath.Join(e.outDir, "trace-"+name+".jsonl")); err != nil {
			return nil, err
		}
		m.set("bench.build_s", e.buildS)
		m.set("host.nproc", float64(runtime.NumCPU()))
		m.set("host.calib_mflops", host.mflops())
		m.set("host.calib_gbps", host.gbps())
		m.set("host.slowness", host.slowness())
		m.set("host.calib_drift_pct", host.driftPct())
		for _, d := range perLayerDefs {
			if _, ok := m[d.Name]; !ok {
				m.set(d.Name, 0)
			}
		}
	}
	rec.HostSlowness = host.slowness()
	rec.HostFPMs, rec.HostMemMs, rec.HostSamples = median(host.fpMs), median(host.memMs), len(host.fpMs)
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	return rec, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func writeRecord(path string, rec *record, appendLine bool) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	flags := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if appendLine {
		flags = os.O_CREATE | os.O_WRONLY | os.O_APPEND
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printTable prints a run's metrics by name and unit, with the spread
// of the samples behind each median.
func printTable(rec *record) {
	fmt.Printf("== %s  seed=%d  trace=%d  P=%d W=%d  host_slowness=%.3f  attempted=%d failed=%d correct=%v\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Procs, rec.Workers, rec.HostSlowness, rec.Attempted, rec.Failed, rec.Correct)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := rec.Metrics[n]
		line := fmt.Sprintf("  %-34s %14.6g %-8s", n, v.Value, v.Unit)
		if v.Lo != nil {
			line += fmt.Sprintf(" [%.6g .. %.6g]", *v.Lo, *v.Hi)
		}
		if v.Raw != nil {
			line += fmt.Sprintf(" (as measured: %.6g)", *v.Raw)
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
}
