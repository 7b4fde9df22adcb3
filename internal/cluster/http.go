package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// HTTPClient is the WorkerClient a coordinator uses to drive a remote
// f3dd over its shard API (mounted by ShardServer). Planes and
// snapshots travel as base64-wrapped binary payloads inside the JSON
// bodies, so the IEEE-754 bits survive the wire exactly.
type HTTPClient struct {
	// BaseURL is the worker daemon's root, e.g. "http://host:8080".
	BaseURL string
	// Client is the underlying HTTP client; nil uses
	// http.DefaultClient.
	Client *http.Client
}

func (c *HTTPClient) httpClient() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return http.DefaultClient
}

// post sends a JSON request body and decodes the JSON response into
// out (out == nil discards the body). Non-2xx responses become errors
// carrying the server's error text; transport-level failures map to
// ErrWorkerDown so the engine's failover treats an unreachable daemon
// like a dead one.
func (c *HTTPClient) post(path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("cluster: encode %s request: %w", path, err)
	}
	url := strings.TrimRight(c.BaseURL, "/") + path
	resp, err := c.httpClient().Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrWorkerDown, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("cluster: %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("cluster: decode %s response: %w", path, err)
	}
	return nil
}

// Ping implements WorkerClient via the daemon's readiness endpoint: a
// draining daemon answers 503, which correctly reads as "do not route
// new work here".
func (c *HTTPClient) Ping() error {
	url := strings.TrimRight(c.BaseURL, "/") + "/healthz"
	resp, err := c.httpClient().Get(url)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrWorkerDown, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: healthz: %s", resp.Status)
	}
	return nil
}

// FetchTrace implements TraceSource over the daemon's GET
// /trace?since= cursor API: the returned events, the cursor to resume
// from (the daemon's X-Trace-Next header when present, else derived
// from the batch), and how many events the daemon's ring dropped
// before this batch (X-Trace-Dropped). Transport failures map to
// ErrWorkerDown, like every other worker call.
func (c *HTTPClient) FetchTrace(since uint64) ([]obs.Event, uint64, uint64, error) {
	url := strings.TrimRight(c.BaseURL, "/") + "/trace?since=" + strconv.FormatUint(since, 10)
	resp, err := c.httpClient().Get(url)
	if err != nil {
		return nil, since, 0, fmt.Errorf("%w: %v", ErrWorkerDown, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, since, 0, fmt.Errorf("cluster: /trace: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	events, err := obs.ReadJSONL(resp.Body)
	if err != nil {
		return nil, since, 0, fmt.Errorf("cluster: decode /trace body: %w", err)
	}
	next := obs.NextCursor(events, since)
	if h := resp.Header.Get("X-Trace-Next"); h != "" {
		if v, perr := strconv.ParseUint(h, 10, 64); perr == nil {
			next = v
		}
	}
	var dropped uint64
	if h := resp.Header.Get("X-Trace-Dropped"); h != "" {
		if v, perr := strconv.ParseUint(h, 10, 64); perr == nil {
			dropped = v
		}
	}
	return events, next, dropped, nil
}

// ClockProbe implements TraceSource: the daemon's clock as reported
// by /healthz (now_ns), plus the locally measured round-trip. A
// draining daemon (503) still reports its clock — readiness and
// timekeeping are independent.
func (c *HTTPClient) ClockProbe() (time.Time, time.Duration, error) {
	url := strings.TrimRight(c.BaseURL, "/") + "/healthz"
	t0 := time.Now()
	resp, err := c.httpClient().Get(url)
	rtt := time.Since(t0)
	if err != nil {
		return time.Time{}, 0, fmt.Errorf("%w: %v", ErrWorkerDown, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return time.Time{}, 0, fmt.Errorf("cluster: /healthz: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var body struct {
		NowNs int64 `json:"now_ns"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body); err != nil {
		return time.Time{}, 0, fmt.Errorf("cluster: decode /healthz body: %w", err)
	}
	if body.NowNs == 0 {
		return time.Time{}, 0, fmt.Errorf("cluster: /healthz reports no clock (now_ns missing)")
	}
	return time.Unix(0, body.NowNs), rtt, nil
}

// FetchMetrics returns the daemon's raw Prometheus exposition (GET
// /metrics), for the coordinator's fleet rollup.
func (c *HTTPClient) FetchMetrics() (string, error) {
	url := strings.TrimRight(c.BaseURL, "/") + "/metrics"
	resp, err := c.httpClient().Get(url)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrWorkerDown, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return "", fmt.Errorf("cluster: read /metrics body: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("cluster: /metrics: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return string(body), nil
}

// SetTrace toggles the daemon's tracer (POST /trace/enable), so a
// coordinator starting a traced solve can switch its workers' rings
// on first.
func (c *HTTPClient) SetTrace(enabled, reset bool) error {
	return c.post("/trace/enable", map[string]bool{"enabled": enabled, "reset": reset}, nil)
}

// CreateShard implements WorkerClient.
func (c *HTTPClient) CreateShard(req CreateShardRequest) (CreateShardResponse, error) {
	var resp CreateShardResponse
	err := c.post("/shards/create", req, &resp)
	return resp, err
}

// StepShard implements WorkerClient.
func (c *HTTPClient) StepShard(req StepRequest) (StepResponse, error) {
	var resp StepResponse
	err := c.post("/shards/step", req, &resp)
	return resp, err
}

// ReleaseShard implements WorkerClient.
func (c *HTTPClient) ReleaseShard(req ReleaseRequest) error {
	return c.post("/shards/release", req, nil)
}

// ShardServer exposes a Host over HTTP: the worker-daemon side of the
// shard API. Mount it under /shards/ (cmd/f3dd does).
type ShardServer struct {
	host *Host
	// maxBody caps a request body; always maxShardBody outside tests.
	maxBody int64
}

// NewShardServer wraps a host.
func NewShardServer(h *Host) *ShardServer { return &ShardServer{host: h, maxBody: maxShardBody} }

// Host returns the served host.
func (s *ShardServer) Host() *Host { return s.host }

// ServeHTTP implements http.Handler.
func (s *ShardServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpJSONError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	switch r.URL.Path {
	case "/shards/create":
		var req CreateShardRequest
		if !s.decodeJSON(w, r, &req) {
			return
		}
		resp, err := s.host.Create(req)
		writeShardResult(w, resp, err)
	case "/shards/step":
		var req StepRequest
		if !s.decodeJSON(w, r, &req) {
			return
		}
		resp, err := s.host.Step(req)
		writeShardResult(w, resp, err)
	case "/shards/release":
		var req ReleaseRequest
		if !s.decodeJSON(w, r, &req) {
			return
		}
		writeShardResult(w, struct{}{}, s.host.Release(req))
	default:
		httpJSONError(w, http.StatusNotFound, fmt.Sprintf("no such endpoint %q", r.URL.Path))
	}
}

// maxShardBody caps a shard-API request body. The largest legitimate
// body is a /shards/create whose Restore carries a snapshot of every
// zone: 40 bytes per grid point, base64-wrapped (x4/3) — about 3.5 MB
// for the benchmark's cluster case and 55 MB for the paper's
// one-million-point case. 256 MiB leaves several times that while
// still bounding what one request can make the daemon buffer.
const maxShardBody = 256 << 20

// decodeJSON parses the request body, answering 413 when it exceeds
// the body cap and 400 on any other failure.
func (s *ShardServer) decodeJSON(w http.ResponseWriter, r *http.Request, into any) bool {
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	if err := json.NewDecoder(body).Decode(into); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		httpJSONError(w, code, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	return true
}

// readHeaderTimeout bounds how long a daemon waits for a connection to
// finish sending its request headers, so idle or trickling clients
// cannot pin connections forever.
const readHeaderTimeout = 10 * time.Second

// NewHTTPServer returns the http.Server both daemons listen with
// (f3dd, and f3dc -serve). It sets only ReadHeaderTimeout: request
// bodies are bounded by size (maxShardBody), and a ReadTimeout or
// WriteTimeout would cut the long-lived SSE /trace/stream and long
// shard steps.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

// writeShardResult answers with the response or maps the host error to
// a status: unknown shards/endpoints are 404-shaped conflicts (409 for
// lockstep mismatches would overfit; 400 carries the message fine).
func writeShardResult(w http.ResponseWriter, resp any, err error) {
	if err != nil {
		httpJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// httpJSONError answers an error as {"error": ...}.
func httpJSONError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
