package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Verdicts of one workload x metric row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved" // the spread is wider than the bound, so the bound cannot be judged
	verdictInfo       = "-"          // a per-layer metric: reported, never judged
)

// readRecords loads a JSON-lines result file (what -out appends).
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no records", path)
	}
	return recs, nil
}

// side is one file's evidence for one workload x metric.
type side struct {
	values []float64 // one per run
	// roundShare is the within-run spread (max-min of the run's blocks
	// over its median) of the only run, when there is exactly one.
	roundShare float64
}

func (s side) median() float64 { return median(s.values) }

// spreadShare is the run-to-run spread as a share of the median: the
// interquartile distance with four or more runs, max-min with two or
// three, and the single run's own round spread otherwise.
func (s side) spreadShare() float64 {
	switch n := len(s.values); {
	case n >= 4:
		return iqrShare(s.values)
	case n >= 2:
		lo, hi := minMax(s.values)
		if med := s.median(); med != 0 {
			return math.Abs((hi - lo) / med)
		}
		return 0
	default:
		return s.roundShare
	}
}

func collect(recs []record, workload string, trace int, metric string) side {
	var s side
	for _, r := range recs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		v, ok := r.Metrics[metric]
		if !ok {
			continue
		}
		s.values = append(s.values, v.Value)
		if v.Lo != nil && v.Value != 0 {
			s.roundShare = math.Abs((*v.Hi - *v.Lo) / v.Value)
		}
	}
	if len(s.values) != 1 {
		s.roundShare = 0
	}
	return s
}

// judge gives the verdict of one row.
func judge(d metricDef, a, b side) string {
	switch {
	case d.Exact:
		if a.median() != b.median() {
			return verdictRegressed
		}
		return verdictOK
	case d.Bound == 0:
		return verdictInfo
	case a.spreadShare() > d.Bound || b.spreadShare() > d.Bound:
		return verdictUnresolved
	case a.median() == 0:
		return verdictUnresolved
	}
	worse := (b.median() - a.median()) / a.median()
	if d.Better == "higher" {
		worse = -worse
	}
	if worse > d.Bound {
		return verdictRegressed
	}
	return verdictOK
}

func failedShare(recs []record, workload string, trace int) (share float64, runs int) {
	attempted, failed := 0, 0
	for _, r := range recs {
		if r.Workload == workload && r.Trace == trace {
			attempted += r.Attempted
			failed += r.Failed
			runs++
		}
	}
	if attempted == 0 {
		return 0, runs
	}
	return float64(failed) / float64(attempted), runs
}

// compareFiles prints one row per workload x metric for result files A
// (the parent) and B (the change) and reports whether any row is
// regressed or unresolved. failed_share may not increase at all.
func compareFiles(w io.Writer, pathA, pathB string) (bad bool, err error) {
	recsA, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	recsB, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-14s %-32s %-8s %13s %7s %13s %7s %8s %6s  %s\n",
		"workload", "metric", "unit", "A median", "A sprd", "B median", "B sprd", "change", "bound", "verdict")
	for _, wl := range workloadDefs {
		for trace, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
			fsA, runsA := failedShare(recsA, wl.Name, trace)
			fsB, runsB := failedShare(recsB, wl.Name, trace)
			if runsA == 0 || runsB == 0 {
				continue
			}
			verdict := verdictOK
			if fsB > fsA {
				verdict, bad = verdictRegressed, true
			}
			fmt.Fprintf(w, "%-14s %-32s %-8s %13.6g %7s %13.6g %7s %8s %6s  %s\n",
				wl.Name, "failed_share", "ratio", fsA, "", fsB, "", "", "0", verdict)

			sorted := append([]metricDef(nil), defs...)
			sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
			for _, d := range sorted {
				a, b := collect(recsA, wl.Name, trace, d.Name), collect(recsB, wl.Name, trace, d.Name)
				if len(a.values) == 0 || len(b.values) == 0 {
					continue
				}
				verdict := judge(d, a, b)
				if verdict == verdictRegressed || verdict == verdictUnresolved {
					bad = true
				}
				change := ""
				if a.median() != 0 {
					change = fmt.Sprintf("%+.1f%%", (b.median()/a.median()-1)*100)
				}
				bound := ""
				switch {
				case d.Exact:
					bound = "exact"
				case d.Bound > 0:
					bound = fmt.Sprintf("%.0f%%", d.Bound*100)
				}
				fmt.Fprintf(w, "%-14s %-32s %-8s %13.6g %6.1f%% %13.6g %6.1f%% %8s %6s  %s\n",
					wl.Name, d.Name, d.Unit, a.median(), a.spreadShare()*100, b.median(), b.spreadShare()*100,
					change, bound, verdict)
			}
		}
	}
	return bad, nil
}
