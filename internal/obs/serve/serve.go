// Package serve is the observability surface of the daemons, written
// once: GET /metrics (Prometheus text), GET /trace (JSONL with a cursor),
// GET /trace/stream (its SSE tail), POST /trace/enable (the tracer
// toggle), GET /analyze (a JSON report) and GET /dash (a dashboard over
// them). A daemon describes what it serves as a Surface and mounts it:
// cmd/f3dd every route over its scheduler's tracer, cmd/f3dc -serve its
// fleet metrics rollup, merged timeline and cluster report.
// cluster.HTTPClient reads the routes back through the names, types and
// decoder declared here.
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
	"time"

	"repro/internal/obs"
)

// The routes a coordinator reads from its workers.
const (
	PathMetrics     = "/metrics"
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

// streamPollDefault is how often the SSE tail polls the ring for new
// events; ?poll_ms= overrides within [streamPollMin, streamPollMax].
const (
	streamPollDefault = 250 * time.Millisecond
	streamPollMin     = 10 * time.Millisecond
	streamPollMax     = 10 * time.Second
)

// Surface is what one daemon serves. Mount installs a route for every
// field that is set, plus the dashboard.
type Surface struct {
	// Metrics writes the exposition served at GET /metrics. Concurrent
	// scrapes call it concurrently.
	Metrics func(io.Writer) error
	// Tracer's ring is served at GET /trace with the cursor protocol,
	// tailed at GET /trace/stream and toggled at POST /trace/enable.
	Tracer *obs.Tracer
	// Timeline, for a daemon without a ring of its own, is served whole
	// at GET /trace: it has no cursor, so ?since is a 400 rather than a
	// cursor into the wrong sequence. Set Tracer or Timeline, not both.
	Timeline func() []obs.Event
	// Analyze builds the report served at GET /analyze.
	Analyze func(*http.Request) any
}

// Mount installs the surface's routes on mux.
func (s Surface) Mount(mux *http.ServeMux) {
	if s.Metrics != nil {
		mux.HandleFunc("GET "+PathMetrics, s.serveMetrics)
	}
	if s.Tracer != nil {
		mux.HandleFunc("GET "+PathTrace, s.serveTrace)
		mux.HandleFunc("GET /trace/stream", s.serveTraceStream)
		mux.HandleFunc("POST "+PathTraceEnable, s.serveTraceEnable)
	}
	if s.Timeline != nil {
		mux.HandleFunc("GET "+PathTrace, s.serveTimeline)
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
// answer arbitrarily old cursors exactly.
func (s Surface) serveTrace(w http.ResponseWriter, r *http.Request) {
	since, ok := cursor(w, r)
	if !ok {
		return
	}
	events, dropped := s.Tracer.EventsSince(since)
	w.Header().Set(headerTraceDropped, strconv.FormatUint(dropped, 10))
	w.Header().Set(headerTraceNext, strconv.FormatUint(obs.NextCursor(events, since), 10))
	writeJSONL(w, events)
}

func (s Surface) serveTimeline(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Has("since") {
		Error(w, http.StatusBadRequest, "this /trace is a merged timeline without a cursor: omit since")
		return
	}
	writeJSONL(w, s.Timeline())
}

func writeJSONL(w http.ResponseWriter, events []obs.Event) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = obs.WriteEventsJSONL(w, events) // an error means the reader hung up
}

// cursor parses the ?since= cursor, 0 when absent.
func cursor(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	return uintParam(w, "since cursor", r.URL.Query().Get("since"), 64)
}

// uintParam parses an unsigned request parameter named label (0 when
// empty), replying 400 on garbage.
func uintParam(w http.ResponseWriter, label, s string, bits int) (uint64, bool) {
	if s == "" {
		return 0, true
	}
	v, err := strconv.ParseUint(s, 10, bits)
	if err != nil {
		Error(w, http.StatusBadRequest, "bad "+label+" "+strconv.Quote(s))
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

// serveTraceStream tails the ring as Server-Sent Events: one `data:`
// line per event (the JSONL object), with the event's sequence as the
// SSE id so EventSource reconnection resumes via Last-Event-ID. The
// explicit ?since= cursor wins over Last-Event-ID; with neither, the
// stream starts at the oldest held event. Drop markers are sent as
// `event: trace_dropped` without an id, so they never regress the
// client's cursor.
func (s Surface) serveTraceStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		Error(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	next, ok := cursor(w, r)
	if !ok {
		return
	}
	if lastID := r.Header.Get("Last-Event-ID"); lastID != "" && r.URL.Query().Get("since") == "" {
		id, ok := uintParam(w, "Last-Event-ID", lastID, 64)
		if !ok {
			return
		}
		next = id + 1
	}
	poll := streamPollDefault
	if p := r.URL.Query().Get("poll_ms"); p != "" {
		ms, ok := uintParam(w, "poll_ms", p, 32)
		if !ok {
			return
		}
		poll = min(max(time.Duration(ms)*time.Millisecond, streamPollMin), streamPollMax)
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		events, _ := s.Tracer.EventsSince(next)
		for _, e := range events {
			blob, err := json.Marshal(e)
			if err != nil {
				return
			}
			head := "event: trace_dropped"
			if e.Kind != obs.KindTraceDropped {
				head, next = "id: "+strconv.FormatUint(e.Seq, 10), e.Seq+1
			}
			if _, err := fmt.Fprintf(w, "%s\ndata: %s\n\n", head, blob); err != nil {
				return
			}
		}
		if len(events) > 0 {
			fl.Flush()
		}
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
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
// external assets, so it works from an air-gapped host. It renders
// whichever report /analyze returns — per-loop for a node, per-step
// critical path for a cluster — and shows the live tail and the tracing
// toggle only where /trace/stream and the trace_enabled gauge exist.
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
