// Command checktool runs the correctness-verification subsystem from
// the command line: the differential conformance harness (every
// registered kernel on teams of each -teams size, plus a mid-run
// Team.Resize cell per size above one for multi-step kernels, compared
// against its serial reference and rerun for bitwise reproducibility)
// and the dynamic loop-dependence checker (shipped kernels' tracked
// variants must be race-free).
//
// With -selftest it also verifies the machinery bites: the
// deliberately seeded loop-carried dependence must fail the harness
// and be flagged by the checker.
//
// Usage:
//
//	checktool [-teams 1,2,3,4,6,8] [-deps] [-depworkers 4]
//	          [-kernel substr] [-selftest] [-v]
//
// Exit status 0 when every obligation holds, 1 otherwise.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/check"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

func run(out, errw io.Writer, args []string) int {
	fs := flag.NewFlagSet("checktool", flag.ContinueOnError)
	fs.SetOutput(errw)
	teams := fs.String("teams", "1,2,3,4,6,8", "comma-separated team sizes")
	deps := fs.Bool("deps", true, "run the dynamic loop-dependence checker over the tracked kernels")
	depWorkers := fs.Int("depworkers", 4, "team size for the dependence checker")
	kernel := fs.String("kernel", "", "run only kernels whose name contains this substring")
	selftest := fs.Bool("selftest", false, "verify the harness and checker catch the seeded dependence")
	verbose := fs.Bool("v", false, "list every kernel as it is checked")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	teamSizes, err := parseInts(*teams)
	if err != nil {
		fmt.Fprintf(errw, "checktool: -teams: %v\n", err)
		return 2
	}

	kernels := check.Registry()
	if *kernel != "" {
		var keep []check.Kernel
		for _, k := range kernels {
			if strings.Contains(k.Name, *kernel) {
				keep = append(keep, k)
			}
		}
		if len(keep) == 0 {
			fmt.Fprintf(errw, "checktool: no kernel matches %q\n", *kernel)
			return 2
		}
		kernels = keep
	}
	if *verbose {
		for _, k := range kernels {
			fmt.Fprintf(out, "kernel %-20s n=%d steps=%d maxulps=%d tracked=%v\n",
				k.Name, k.N, k.Steps, k.MaxULPs, k.Tracked != nil)
		}
	}

	failed := false
	rep := check.Run(kernels, teamSizes)
	fmt.Fprint(out, rep)
	if !rep.OK() {
		failed = true
	}

	if *deps {
		races := 0
		for _, res := range check.CheckDependences(kernels, *depWorkers) {
			races += len(res.Races)
			for _, r := range res.Races {
				fmt.Fprintf(out, "  RACE %s: %v\n", res.Kernel, r)
			}
		}
		fmt.Fprintf(out, "dependences: %d workers, %d races\n", *depWorkers, races)
		if races > 0 {
			failed = true
		}
	}

	if *selftest && !runSelftest(out, teamSizes, *depWorkers) {
		failed = true
	}

	if failed {
		fmt.Fprintln(out, "FAIL")
		return 1
	}
	fmt.Fprintln(out, "OK")
	return 0
}

// runSelftest proves the machinery has teeth: the seeded loop-carried
// dependence must fail the conformance harness on some multi-worker
// cell and be flagged by the dependence checker.
func runSelftest(out io.Writer, teamSizes []int, depWorkers int) bool {
	seeded := []check.Kernel{check.SeededDependence()}
	ok := true

	rep := check.Run(seeded, teamSizes)
	multi := slices.ContainsFunc(teamSizes, func(w int) bool { return w > 1 })
	if rep.OK() && multi {
		fmt.Fprintln(out, "selftest: conformance harness MISSED the seeded dependence")
		ok = false
	} else {
		fmt.Fprintf(out, "selftest: harness caught the seeded dependence (%d failing cells, minimized to n=%d)\n",
			len(rep.Failures), minFailureN(rep))
	}

	if depWorkers > 1 {
		races := 0
		for _, res := range check.CheckDependences(seeded, depWorkers) {
			races += len(res.Races)
		}
		if races == 0 {
			fmt.Fprintln(out, "selftest: dependence checker MISSED the seeded dependence")
			ok = false
		} else {
			fmt.Fprintf(out, "selftest: checker flagged the seeded dependence (%d races)\n", races)
		}
	}
	return ok
}

func minFailureN(rep *check.Report) int {
	n := 0
	for _, f := range rep.Failures {
		if n == 0 || f.N < n {
			n = f.N
		}
	}
	return n
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		if v < 1 {
			return nil, fmt.Errorf("value %d out of range", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
