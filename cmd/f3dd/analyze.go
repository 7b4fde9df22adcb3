package main

import (
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/obs/analyze"
)

// analyzeReport is the daemon's GET /analyze: internal/obs/analyze over
// the trace ring. Optional query parameters tune the model: clock_ghz
// (ns→cycles), sync_cost_cycles (Table 1 column), budget (overhead
// fraction), and label stamps the report for later diffing.
func (sv *server) analyzeReport(r *http.Request) (any, error) {
	var cfg analyze.Config
	q := r.URL.Query()
	for _, p := range []struct {
		name string
		dst  *float64
	}{
		{"clock_ghz", &cfg.ClockGHz},
		{"sync_cost_cycles", &cfg.SyncCostCycles},
		{"budget", &cfg.Budget},
	} {
		s := q.Get(p.name)
		if s == "" {
			continue
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad %s %q (want a positive number)", p.name, s)
		}
		*p.dst = v
	}
	// EventsSince(0) rather than Events(): the cursor read prepends
	// the drop marker when the ring has wrapped, so the report is
	// flagged Truncated instead of silently covering only the window.
	events, _ := sv.sched.Tracer().EventsSince(0)
	rep := analyze.Analyze(events, cfg)
	rep.Label = q.Get("label")
	return rep, nil
}
