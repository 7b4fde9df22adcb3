package analyze

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// Entry is one loop (or routine) of a prof-style profile — the paper's
// §6 prof/pixie stand-in: one name's charge from a traced run's spans
// (Report.Ranked). The JSON shape (total in integer nanoseconds) is part
// of the Report schema.
type Entry struct {
	Name  string        `json:"name"`
	Calls int           `json:"calls"`
	Total time.Duration `json:"total_ns"`
}

// Mean returns the average duration per call.
func (e Entry) Mean() time.Duration {
	if e.Calls == 0 {
		return 0
	}
	return e.Total / time.Duration(e.Calls)
}

// rank charges the span-shaped events of a trace and returns the
// entries sorted by total time, most expensive first (ties broken by
// name). Regions are charged under their label (unlabeled ones as
// "region"), barrier waits and chunks under "<label>/barrier" and
// "<label>/chunk", and phase spans under their own name
// ("<label>/<zone>/<group>" for a solver step), so the ranking
// separates useful work from synchronization cost and names the step's
// phases — the split the paper's §4 workflow reads off prof output.
func rank(events []obs.Event) []Entry {
	byName := map[string]*Entry{}
	charge := func(name string, d time.Duration) {
		e := byName[name]
		if e == nil {
			e = &Entry{Name: name}
			byName[name] = e
		}
		e.Calls++
		e.Total += d
	}
	for _, e := range events {
		name := e.Name
		if name == "" {
			name = "region"
		}
		switch e.Kind {
		case obs.KindRegionEnd:
			charge(name, e.Dur)
		case obs.KindBarrier:
			charge(name+"/barrier", e.Dur)
		case obs.KindChunk:
			charge(name+"/chunk", e.Dur)
		case obs.KindPhase:
			charge(e.Name, e.Dur)
		}
	}
	out := make([]Entry, 0, len(byName))
	for _, e := range byName {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// FormatRanked renders a prof-style table of the top n entries (n <= 0
// means all): rank, cumulative %, self %, calls, mean, total.
func FormatRanked(entries []Entry, n int) string {
	if n <= 0 || n > len(entries) {
		n = len(entries)
	}
	var total time.Duration
	for _, e := range entries {
		total += e.Total
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-28s %8s %8s %12s %12s %7s\n",
		"#", "loop", "self%", "cum%", "calls", "mean", "total")
	var cum time.Duration
	for i := 0; i < n; i++ {
		e := entries[i]
		cum += e.Total
		selfPct, cumPct := 0.0, 0.0
		if total > 0 {
			selfPct = 100 * float64(e.Total) / float64(total)
			cumPct = 100 * float64(cum) / float64(total)
		}
		fmt.Fprintf(&b, "%-4d %-28s %7.1f%% %7.1f%% %12d %12v %7v\n",
			i+1, e.Name, selfPct, cumPct, e.Calls, e.Mean().Round(time.Microsecond), e.Total.Round(time.Millisecond))
	}
	return b.String()
}
