package main

import (
	"net/http"

	"repro/internal/obs/analyze"
)

// analyzeReport is the daemon's GET /analyze: internal/obs/analyze over
// the trace ring. The optional label parameter stamps the report.
func (sv *server) analyzeReport(r *http.Request) any {
	// EventsSince(0) rather than Events(): the cursor read prepends
	// the drop marker when the ring has wrapped, so the report is
	// flagged Truncated instead of silently covering only the window.
	events, _ := sv.sched.Tracer().EventsSince(0)
	rep := analyze.Analyze(events)
	rep.Label = r.URL.Query().Get("label")
	return rep
}
