// Package serve is the daemon's observability surface, written once:
// GET /metrics (Prometheus text), GET /trace (JSONL with a cursor),
// POST /trace/enable (the tracer toggle), GET /analyze (a JSON report)
// and GET /dash (a dashboard over them). A daemon describes what it
// serves as a Surface and mounts it; cmd/f3dd mounts every route over
// its scheduler's tracer. cluster.HTTPClient reads the trace routes
// back through the names, types and decoder declared here. A finished
// fleet solve is read from its file (f3dc -trace-out, then tracetool
// cluster), not served.
//
// The package sits beside internal/obs rather than inside it: parloop
// and sched import obs, so every solver binary links it, and handlers
// there would link net/http into cmd/f3d too (3.1 MB → 5.5 MB).
// lint/deps.sh keeps net/http out of those packages.
package serve

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/obs"
)

// The routes a coordinator reads from its workers.
const (
	PathTrace       = "/trace"
	PathTraceEnable = "/trace/enable"
)

const (
	metricsContentType = "text/plain; version=0.0.4; charset=utf-8"
	headerTraceNext    = "X-Trace-Next"
	headerTraceDropped = "X-Trace-Dropped"
)

// MaxTraceBody caps the /trace body ReadTrace accepts. The daemons
// write 100–180 bytes of JSON an event (shard spans carry node and
// trace tags), so a full default ring of 65 536 events is ≤ 12 MiB;
// 64 MiB allows 1 KiB an event while bounding what one worker can make
// its coordinator buffer.
const MaxTraceBody = 64 << 20

// Surface is what one daemon serves. Mount installs a route for every
// field that is set, plus the dashboard.
type Surface struct {
	// Metrics writes the exposition served at GET /metrics. Concurrent
	// scrapes call it concurrently.
	Metrics func(io.Writer) error
	// Tracer's ring is served at GET /trace with the cursor protocol
	// and toggled at POST /trace/enable.
	Tracer *obs.Tracer
	// Analyze builds the report served at GET /analyze.
	Analyze func(*http.Request) any
}

// Mount installs the surface's routes on mux.
func (s Surface) Mount(mux *http.ServeMux) {
	if s.Metrics != nil {
		mux.HandleFunc("GET /metrics", s.serveMetrics)
	}
	if s.Tracer != nil {
		mux.HandleFunc("GET "+PathTrace, s.serveTrace)
		mux.HandleFunc("POST "+PathTraceEnable, s.serveTraceEnable)
	}
	if analyze := s.Analyze; analyze != nil {
		mux.HandleFunc("GET /analyze", func(w http.ResponseWriter, r *http.Request) {
			WriteJSON(w, http.StatusOK, analyze(r))
		})
	}
	mux.HandleFunc("GET /dash", serveDash)
}

// TracerGauges adds the tracer's accounting to reg, for the dashboard's
// tracing toggle and for scrapers. GaugeFunc re-registration replaces,
// so rebuilding a server over one registry is safe.
func TracerGauges(reg *obs.Registry, tr *obs.Tracer) {
	reg.GaugeFunc("trace_enabled", "Whether the sync-event tracer is recording (0/1).", func() float64 {
		if tr.Enabled() {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("trace_events", "Events currently held in the trace ring buffer.", func() float64 {
		return float64(tr.Len())
	})
	reg.GaugeFunc("trace_events_dropped", "Events overwritten in the ring before export.", func() float64 {
		return float64(tr.Dropped())
	})
}

func (s Surface) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metricsContentType)
	// A write error means the scraper hung up; the headers are gone,
	// so there is nobody left to tell.
	_ = s.Metrics(w)
}

// serveTrace writes the ring as JSONL, oldest event first, from the
// ?since= cursor on. After processing a batch a reader resumes from the
// X-Trace-Next value. If wraparound dropped events from the requested
// window, the first line is a synthetic trace_dropped marker and
// X-Trace-Dropped carries the count — a fixed-capacity ring cannot
// answer arbitrarily old cursors exactly. The dashboard's live tail
// polls this route the same way.
func (s Surface) serveTrace(w http.ResponseWriter, r *http.Request) {
	since, ok := cursor(w, r)
	if !ok {
		return
	}
	events, dropped := s.Tracer.EventsSince(since)
	w.Header().Set(headerTraceDropped, strconv.FormatUint(dropped, 10))
	w.Header().Set(headerTraceNext, strconv.FormatUint(obs.NextCursor(events, since), 10))
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = obs.WriteEventsJSONL(w, events) // an error means the reader hung up
}

// cursor parses the ?since= cursor, 0 when absent, replying 400 on
// garbage.
func cursor(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	q := r.URL.Query().Get("since")
	if q == "" {
		return 0, true
	}
	v, err := strconv.ParseUint(q, 10, 64)
	if err != nil {
		Error(w, http.StatusBadRequest, "bad since cursor "+strconv.Quote(q))
		return 0, false
	}
	return v, true
}

// ReadTrace decodes a /trace response to a request from since: the
// events, the cursor to resume from (X-Trace-Next when present, else
// derived from the batch) and X-Trace-Dropped. A body over MaxTraceBody
// is an error, never a shortened batch: a cursor taken past a cut body
// would skip the events cut off.
func ReadTrace(resp *http.Response, since uint64) (events []obs.Event, next, dropped uint64, err error) {
	body := &io.LimitedReader{R: resp.Body, N: MaxTraceBody + 1}
	events, err = obs.ReadJSONL(body)
	if body.N == 0 {
		return nil, since, 0, fmt.Errorf("%s body exceeds %d bytes", PathTrace, MaxTraceBody)
	}
	if err != nil {
		return nil, since, 0, fmt.Errorf("decode %s body: %w", PathTrace, err)
	}
	next = obs.NextCursor(events, since)
	if v, perr := strconv.ParseUint(resp.Header.Get(headerTraceNext), 10, 64); perr == nil {
		next = v
	}
	// Absent or malformed reads as nothing dropped; the in-band marker
	// still reports the loss.
	dropped, _ = strconv.ParseUint(resp.Header.Get(headerTraceDropped), 10, 64)
	return events, next, dropped, nil
}

// TraceEnable is the POST /trace/enable body. An empty body means
// {"enabled": true}.
type TraceEnable struct {
	Enabled *bool `json:"enabled"`
	// Reset discards the ring's current contents before toggling — the
	// start of a clean profiling window.
	Reset bool `json:"reset"`
}

// TraceStatus is the POST /trace/enable reply.
type TraceStatus struct {
	Enabled bool   `json:"enabled"`
	Events  int    `json:"events"`
	Dropped uint64 `json:"dropped"`
}

func (s Surface) serveTraceEnable(w http.ResponseWriter, r *http.Request) {
	var req TraceEnable
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		Error(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	tr := s.Tracer
	if req.Reset {
		tr.Reset()
	}
	if req.Enabled == nil || *req.Enabled {
		tr.Enable()
	} else {
		tr.Disable()
	}
	WriteJSON(w, http.StatusOK, TraceStatus{Enabled: tr.Enabled(), Events: tr.Len(), Dropped: tr.Dropped()})
}

// dashHTML is the self-contained diagnosis dashboard: one HTML file, no
// external assets, so it works from an air-gapped host. It renders the
// per-loop report /analyze returns, tails the ring by polling /trace
// from its X-Trace-Next cursor, and shows the tracing toggle only where
// the trace_enabled gauge exists.
//
//go:embed dash.html
var dashHTML []byte

func serveDash(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Header().Set("Cache-Control", "no-cache")
	_, _ = w.Write(dashHTML)
}

// WriteJSON replies with v as indented JSON under the given status.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // an error means the client hung up
}

// Error replies {"error": msg} under the given status.
func Error(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, map[string]string{"error": msg})
}
