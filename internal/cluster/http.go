package cluster

import (
	"bytes"
	"cmp"
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
	"repro/internal/sched"
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

// do sends one request, a GET when body is nil, and returns the
// response when its status is 2xx. Transport failures map to
// ErrWorkerDown, so the engine's failover treats an unreachable daemon
// like a dead one. Any other status is an error carrying the server's
// text on one line; 410 Gone (a shard the worker no longer holds) is
// ErrWorkerDown too.
func (c *HTTPClient) do(path, contentType string, body []byte) (*http.Response, error) {
	url, hc := strings.TrimRight(c.BaseURL, "/")+path, cmp.Or(c.Client, http.DefaultClient)
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = hc.Get(url)
	} else {
		resp, err = hc.Post(url, contentType, bytes.NewReader(body))
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrWorkerDown, err)
	}
	if resp.StatusCode/100 == 2 {
		return resp, nil
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	err = fmt.Errorf("cluster: %s: %s: %s", path, resp.Status, bytes.Join(bytes.Fields(msg), []byte(" ")))
	if resp.StatusCode == http.StatusGone {
		err = fmt.Errorf("%w: %w", ErrWorkerDown, err) // the shard's state died there
	}
	return nil, err
}

// postJSON sends a small JSON request whose response body nobody needs
// (release, trace toggle).
func (c *HTTPClient) postJSON(path string, in any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("cluster: encode %s request: %w", path, err)
	}
	resp, err := c.do(path, "application/json", body)
	if err != nil {
		return err
	}
	return resp.Body.Close()
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
	resp, err := c.do(path, frameContentType, body.Bytes())
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := readFrame(resp.Body, maxShardBody, resp.ContentLength, out, reuse); err != nil {
		return fmt.Errorf("%w: decode %s response: %w", ErrWorkerDown, path, err)
	}
	return nil
}

// Ping probes the daemon's readiness endpoint before it is registered:
// a draining daemon answers 503, which correctly reads as "do not route
// new work here".
func (c *HTTPClient) Ping() error {
	resp, err := c.do("/healthz", "", nil)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	return resp.Body.Close()
}

// FetchTrace implements TraceSource over the daemon's GET /trace,
// decoded by serve.ReadTrace. A body over serve.MaxTraceBody is an
// error, never a shortened ring. Transport failures map to
// ErrWorkerDown, like every other worker call.
func (c *HTTPClient) FetchTrace() ([]obs.Event, error) {
	resp, err := c.do(serve.PathTrace, "", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	events, err := serve.ReadTrace(resp)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return events, nil
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

// ServeHTTP implements http.Handler.
func (s *ShardServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		serve.Error(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	switch r.URL.Path {
	case "/shards/create":
		var req CreateShardRequest
		if !s.decodeFrame(w, r, &req) {
			return
		}
		resp, err := s.host.Create(r.Context(), req)
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
		serve.Error(w, http.StatusNotFound, fmt.Sprintf("no such endpoint %q", r.URL.Path))
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
		serve.Error(w, code, fmt.Sprintf("bad request body: %v", err))
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

// NewHTTPServer returns the http.Server f3dd listens with. It sets
// only ReadHeaderTimeout: request bodies are bounded by size
// (maxShardBody), and a ReadTimeout or WriteTimeout would cut the
// requests that legitimately wait — a long shard step, a shard create
// waiting for its grant, and GET /jobs/{id}/result's 10 s wait for its
// job.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

// writeShardResult answers with the framed response (an empty JSON
// object when there is none) or maps the host error to a status: 410
// for a shard whose job has ended (ErrWorkerDown), 503 for a create the
// scheduler refuses (draining, queue full), 400 for everything else.
func writeShardResult(w http.ResponseWriter, resp any, err error) {
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrWorkerDown) {
			code = http.StatusGone
		} else if errors.Is(err, sched.ErrDraining) || errors.Is(err, sched.ErrQueueFull) {
			code = http.StatusServiceUnavailable
		}
		serve.Error(w, code, err.Error())
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
		// The header failed to encode before a byte went out. Once
		// started, a write error means the coordinator hung up; it sees
		// that as a lost worker.
		serve.Error(w, http.StatusInternalServerError, err.Error())
	}
}
