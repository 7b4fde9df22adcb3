package analyze

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Entry is one loop (or routine) of a prof-style profile — the paper's
// §6 prof/pixie stand-in: a Profiler's charge (f3d.CacheOptions.Profiler
// times every phase) or a traced span (Report.Ranked). The JSON shape
// (total in integer nanoseconds) is part of the Report schema.
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

// Profiler accumulates loop timings. It is safe for concurrent use.
type Profiler struct {
	mu      sync.Mutex
	entries map[string]Entry
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{entries: make(map[string]Entry)}
}

// Time runs fn and charges its wall-clock duration to name.
func (p *Profiler) Time(name string, fn func()) {
	start := time.Now()
	fn()
	p.Add(name, time.Since(start))
}

// Add charges one call of duration d to name.
func (p *Profiler) Add(name string, d time.Duration) {
	p.mu.Lock()
	e := p.entries[name]
	e.Name = name
	e.Calls++
	e.Total += d
	p.entries[name] = e
	p.mu.Unlock()
}

// Entries returns all entries sorted by total time, most expensive
// first (ties broken by name for determinism).
func (p *Profiler) Entries() []Entry {
	p.mu.Lock()
	out := make([]Entry, 0, len(p.entries))
	for _, e := range p.entries {
		out = append(out, e)
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Total returns the sum of all charged durations.
func (p *Profiler) Total() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	var t time.Duration
	for _, e := range p.entries {
		t += e.Total
	}
	return t
}

// rank charges the span-shaped events of a trace (region end, barrier
// wait, chunk execution) to a fresh profiler and returns its ranking.
// Regions are charged under their label (unlabeled ones as "region"),
// barrier waits and chunks under "<label>/barrier" and "<label>/chunk",
// so the ranking separates useful work from synchronization cost — the
// split the paper's §4 workflow reads off prof output.
func rank(events []obs.Event) []Entry {
	p := NewProfiler()
	for _, e := range events {
		name := e.Name
		if name == "" {
			name = "region"
		}
		switch e.Kind {
		case obs.KindRegionEnd:
			p.Add(name, e.Dur)
		case obs.KindBarrier:
			p.Add(name+"/barrier", e.Dur)
		case obs.KindChunk:
			p.Add(name+"/chunk", e.Dur)
		}
	}
	return p.Entries()
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
