package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/model"
	"repro/internal/obs/analyze"
)

// encodeReport writes the report as indented JSON.
func encodeReport(w io.Writer, rep *analyze.Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// renderReport prints the human-readable diagnosis: per-loop critical
// path and attribution, stair-step plateaus, the grant audit, and the
// ranked profile.
func renderReport(w io.Writer, rep *analyze.Report) {
	ns := func(v int64) string { return time.Duration(v).String() }
	fmt.Fprintf(w, "trace: %d events, wall %s", rep.Events, ns(rep.WallNs))
	if rep.Label != "" {
		fmt.Fprintf(w, ", label %s", rep.Label)
	}
	fmt.Fprintln(w)
	if rep.Truncated {
		fmt.Fprintf(w, "WARNING: trace truncated — %d events lost to ring wraparound; attribution undercounts\n", rep.DroppedEvents)
	}
	fmt.Fprintf(w, "model: %v a region on a running team, Table 1 at break-even\n\n", time.Duration(model.RegionNs))

	if len(rep.Loops) == 0 {
		fmt.Fprintln(w, "no complete parallel regions in trace")
		return
	}

	fmt.Fprintln(w, "loops (by work):")
	fmt.Fprintf(w, "  %-20s %8s %4s %6s %6s %10s %10s %9s %9s %7s\n",
		"loop", "regions", "P", "units", "syncs", "work", "critical", "achieved", "achievable", "budget")
	for _, l := range rep.Loops {
		verdict := "pass"
		if !l.Budget.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "  %-20s %8d %4d %6d %6d %10s %10s %8.2fx %9.2fx %7s\n",
			l.Name, l.Regions, l.Workers, l.Units, l.SyncEvents,
			ns(l.WorkNs), ns(l.CriticalNs), l.AchievedSpeedup, l.AchievableSpeedup, verdict)
		if l.IncompleteRegions > 0 {
			fmt.Fprintf(w, "  %-20s %d incomplete region(s) excluded (trace cut mid-region)\n", "", l.IncompleteRegions)
		}
	}

	fmt.Fprintln(w, "\nwall-time attribution (parallel / serial / barrier / imbalance / sync):")
	for _, l := range rep.Loops {
		a := l.Attribution
		fmt.Fprintf(w, "  %-20s %5.1f%% / %5.1f%% / %5.1f%% / %5.1f%% / %5.1f%% of %s\n",
			l.Name, 100*a.ParallelFrac, 100*a.SerialFrac, 100*a.BarrierFrac,
			100*a.ImbalanceFrac, 100*a.SyncFrac, ns(a.WallNs))
	}

	if len(rep.Plateaus) > 0 {
		fmt.Fprintln(w, "\nstair-step plateaus (measured vs model):")
		fmt.Fprintf(w, "  %6s %8s %9s %9s\n", "units", "procs", "measured", "predicted")
		for _, p := range rep.Plateaus {
			procs := fmt.Sprintf("%d", p.ProcsLo)
			if p.ProcsHi != p.ProcsLo {
				procs = fmt.Sprintf("%d-%d", p.ProcsLo, p.ProcsHi)
			}
			fmt.Fprintf(w, "  %6d %8s %8.2fx %8.2fx\n", p.Units, procs, p.MeasuredSpeedup, p.PredictedSpeedup)
		}
	}

	if len(rep.Grants) > 0 {
		fmt.Fprintf(w, "\nscheduler grants (plateau efficiency %.0f%%):\n", 100*rep.PlateauEfficiency)
		fmt.Fprintf(w, "  %-20s %5s %5s %6s %9s %8s\n", "job", "M", "P", "count", "stairstep", "plateau")
		for _, g := range rep.Grants {
			onp := "yes"
			if !g.OnPlateau {
				onp = "NO"
			}
			fmt.Fprintf(w, "  %-20s %5d %5d %6d %8.2fx %8s\n",
				g.Name, g.Requested, g.Procs, g.Count, g.PredictedSpeedup, onp)
		}
	}

	if len(rep.Ranked) > 0 {
		fmt.Fprintln(w, "\nranked profile:")
		fmt.Fprint(w, analyze.FormatRanked(rep.Ranked, 10))
	}
}
