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
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/serve"
)

// HTTPClient is the WorkerClient a coordinator uses to drive a remote
// f3dd over its shard API (mounted by ShardServer). Create and step
// bodies cross as binary frames (frame.go): planes and snapshots are
// raw blobs behind a small JSON header, so the IEEE-754 bits survive
// the wire exactly and nothing bulky is parsed as text. Responses are
// held to the same maxShardBody cap the worker applies to requests.
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

// post sends one request body and, on a 2xx answer, hands the response
// to read (nil discards it). Non-2xx responses become errors carrying
// the server's error text; transport-level failures map to
// ErrWorkerDown so the engine's failover treats an unreachable daemon
// like a dead one.
func (c *HTTPClient) post(path, contentType string, body []byte, read func(*http.Response) error) error {
	url := strings.TrimRight(c.BaseURL, "/") + path
	resp, err := c.httpClient().Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrWorkerDown, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("cluster: %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	if read == nil {
		return nil
	}
	return read(resp)
}

// postJSON sends a small JSON request whose response body nobody needs
// (release, trace toggle).
func (c *HTTPClient) postJSON(path string, in any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("cluster: encode %s request: %w", path, err)
	}
	return c.post(path, "application/json", body, nil)
}

// postFrame sends in as one frame and decodes the framed response into
// out, refusing a response larger than maxShardBody. A 2xx response
// that does not decode — cut off by a daemon dying mid-answer, or
// malformed — is a transport failure, like an unreachable daemon.
func (c *HTTPClient) postFrame(path string, in, out any, reuse [][]byte) error {
	var body bytes.Buffer
	if err := writeFrame(&body, in, func(n int64) { body.Grow(int(n)) }); err != nil {
		return fmt.Errorf("cluster: encode %s request: %w", path, err)
	}
	return c.post(path, frameContentType, body.Bytes(), func(resp *http.Response) error {
		if err := readFrame(resp.Body, maxShardBody, resp.ContentLength, out, reuse); err != nil {
			return fmt.Errorf("%w: decode %s response: %w", ErrWorkerDown, path, err)
		}
		return nil
	})
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
// /trace?since= cursor API, decoded by serve.ReadTrace: the events, the
// cursor to resume from and the daemon ring's drop count. A body over
// serve.MaxTraceBody is an error, so the collector keeps its cursor.
// Transport failures map to ErrWorkerDown, like every other worker call.
func (c *HTTPClient) FetchTrace(since uint64) ([]obs.Event, uint64, uint64, error) {
	url := strings.TrimRight(c.BaseURL, "/") + serve.PathTrace + "?since=" + strconv.FormatUint(since, 10)
	resp, err := c.httpClient().Get(url)
	if err != nil {
		return nil, since, 0, fmt.Errorf("%w: %v", ErrWorkerDown, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, since, 0, fmt.Errorf("cluster: %s: %s: %s", serve.PathTrace, resp.Status, bytes.TrimSpace(msg))
	}
	events, next, dropped, err := serve.ReadTrace(resp, since)
	if err != nil {
		return nil, since, 0, fmt.Errorf("cluster: %w", err)
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
	url := strings.TrimRight(c.BaseURL, "/") + serve.PathMetrics
	resp, err := c.httpClient().Get(url)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrWorkerDown, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return "", fmt.Errorf("cluster: read %s body: %w", serve.PathMetrics, err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("cluster: %s: %s: %s", serve.PathMetrics, resp.Status, bytes.TrimSpace(body))
	}
	return string(body), nil
}

// SetTrace toggles the daemon's tracer (POST /trace/enable), so a
// coordinator starting a traced solve can switch its workers' rings
// on first.
func (c *HTTPClient) SetTrace(enabled, reset bool) error {
	return c.postJSON(serve.PathTraceEnable, serve.TraceEnable{Enabled: &enabled, Reset: reset})
}

// CreateShard implements WorkerClient.
func (c *HTTPClient) CreateShard(req CreateShardRequest) (CreateShardResponse, error) {
	var resp CreateShardResponse
	err := c.postFrame("/shards/create", &req, &resp, nil)
	return resp, err
}

// StepShard implements WorkerClient.
func (c *HTTPClient) StepShard(req StepRequest) (StepResponse, error) {
	var resp StepResponse
	err := c.postFrame("/shards/step", &req, &resp, req.Reuse)
	return resp, err
}

// ReleaseShard implements WorkerClient.
func (c *HTTPClient) ReleaseShard(req ReleaseRequest) error {
	return c.postJSON("/shards/release", req)
}

// ShardServer exposes a Host over HTTP: the worker-daemon side of the
// shard API. Mount it under /shards/ (cmd/f3dd does).
type ShardServer struct {
	host *Host
	// maxBody caps a request body; always maxShardBody outside tests.
	maxBody int64
	// snapBufs holds *[][]byte: snapshot buffers of answered steps.
	snapBufs sync.Pool
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
		if !s.decodeFrame(w, r, &req) {
			return
		}
		resp, err := s.host.Create(req)
		writeShardResult(w, &resp, err)
	case "/shards/step":
		var req StepRequest
		if !s.decodeFrame(w, r, &req) {
			return
		}
		// The checkpoint bits are encoded into the buffers an answered
		// step handed back, not into fresh ones every step.
		bufs, _ := s.snapBufs.Get().(*[][]byte)
		if bufs == nil {
			bufs = new([][]byte)
		}
		req.Reuse = *bufs
		resp, err := s.host.Step(req)
		writeShardResult(w, &resp, err)
		*bufs = (*bufs)[:0]
		for i := range resp.Snapshots {
			*bufs = append(*bufs, resp.Snapshots[i].Data)
		}
		s.snapBufs.Put(bufs)
	case "/shards/release":
		var req ReleaseRequest // tiny: stays plain JSON
		if !s.decode(w, r, func(body io.Reader) error { return json.NewDecoder(body).Decode(&req) }) {
			return
		}
		writeShardResult(w, nil, s.host.Release(req))
	default:
		httpJSONError(w, http.StatusNotFound, fmt.Sprintf("no such endpoint %q", r.URL.Path))
	}
}

// maxShardBody caps a shard-API body, in both directions: requests a
// worker reads and responses a coordinator reads. The largest
// legitimate body is a /shards/create whose Restore carries a snapshot
// of every zone, 40 bytes per grid point — about 2.6 MB for the
// benchmark's cluster case and 40 MB for the paper's one-million-point
// case. 256 MiB leaves several times that while still bounding what one
// body can make a process buffer.
const maxShardBody = 256 << 20

// decode runs parse over the capped request body, answering 413 when
// the body exceeds the cap and 400 on any other failure.
func (s *ShardServer) decode(w http.ResponseWriter, r *http.Request, parse func(body io.Reader) error) bool {
	if err := parse(http.MaxBytesReader(w, r.Body, s.maxBody)); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) || errors.Is(err, errFrameTooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		httpJSONError(w, code, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	return true
}

// decodeFrame parses a framed request body (create, step) into req.
func (s *ShardServer) decodeFrame(w http.ResponseWriter, r *http.Request, req any) bool {
	return s.decode(w, r, func(body io.Reader) error {
		return readFrame(body, s.maxBody, r.ContentLength, req, nil)
	})
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

// writeShardResult answers with the framed response (an empty JSON
// object when there is none) or maps the host error to a status:
// unknown shards/endpoints are 404-shaped conflicts (409 for lockstep
// mismatches would overfit; 400 carries the message fine).
func writeShardResult(w http.ResponseWriter, resp any, err error) {
	if err != nil {
		httpJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	if resp == nil {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, "{}\n")
		return
	}
	started := false
	err = writeFrame(w, resp, func(n int64) {
		started = true
		w.Header().Set("Content-Type", frameContentType)
		w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
	})
	if err != nil && !started {
		// The header failed to encode (a NaN residual, say) before a
		// byte went out. Once started, a write error means the
		// coordinator hung up; it sees that as a lost worker.
		httpJSONError(w, http.StatusInternalServerError, err.Error())
	}
}

// httpJSONError answers an error as {"error": ...}.
func httpJSONError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
