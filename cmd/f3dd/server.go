package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/euler"
	"repro/internal/f3d"
	"repro/internal/grid"
	"repro/internal/model"
	"repro/internal/obs/serve"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// Submission limits: the daemon refuses jobs that would allocate
// unbounded memory or run effectively forever, instead of letting one
// request exhaust the host.
const (
	maxSteps       = 1_000_000
	maxTimeoutSec  = 1e9 // ≈ 32 years; time.Duration overflows from ≈ 9.2e9 s
	minDim         = 3   // a zone needs an interior point between two faces
	maxDim         = 128
	maxCells       = 1 << 20
	maxPoints      = 1 << 20
	maxParallelism = 1 << 16
	// maxSpin bounds a synthetic job's spin counts (cycles times
	// work_scale): below 2^53 every count is an exact float64 and
	// converts to int without overflow.
	maxSpin = 1 << 53
)

// serverConfig tunes the HTTP layer. The clock is injectable so the
// result wait is testable on virtual time.
type serverConfig struct {
	// clock times resultWait. nil: the real clock.
	clock simclock.Clock
}

func (c serverConfig) withDefaults() serverConfig {
	if c.clock == nil {
		c.clock = simclock.Real{}
	}
	return c
}

// server is the HTTP surface of the f3dd daemon. Every route is a thin
// translation between JSON and the scheduler: admission errors map to
// backpressure status codes at once (429 queue full, 503 draining), so
// clients decide whether to retry instead of piling work up inside the
// process, and terminal job states map to distinct result statuses
// (200 done, 500 failed, 504 timed out, 409 canceled).
type server struct {
	sched  *sched.Scheduler
	shards *cluster.Host
	cfg    serverConfig
	mux    *http.ServeMux
}

func newServer(s *sched.Scheduler, cfg serverConfig) *server {
	cfg = cfg.withDefaults()
	sv := &server{
		sched: s,
		// Shards run as jobs of s, and their solver step spans go into
		// its tracer, whose events a cluster coordinator tags with
		// this daemon's worker ID when it reads them.
		shards: cluster.NewHost(s),
		cfg:    cfg,
		mux:    http.NewServeMux(),
	}
	sv.mux.HandleFunc("POST /jobs", sv.handleSubmit)
	sv.mux.HandleFunc("GET /jobs", sv.handleList)
	sv.mux.HandleFunc("GET /jobs/{id}", sv.handleJob)
	sv.mux.HandleFunc("GET /jobs/{id}/result", sv.handleResult)
	sv.mux.HandleFunc("POST /jobs/{id}/cancel", sv.handleCancel)
	serve.Surface{
		Metrics: s.Registry().WritePrometheus,
		Tracer:  s.Tracer(),
		Analyze: sv.analyzeReport,
	}.Mount(sv.mux)
	sv.mux.HandleFunc("GET /healthz", sv.handleHealthz)
	sv.mux.Handle("POST /shards/", cluster.NewShardServer(sv.shards))
	serve.TracerGauges(s.Registry(), s.Tracer())
	return sv
}

func (sv *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sv.mux.ServeHTTP(w, r)
}

// submitRequest is the POST /jobs body. Kind selects the job type;
// the remaining fields apply per kind (unused ones are ignored by the
// other kinds' builders but rejected if unknown to all).
type submitRequest struct {
	Kind string `json:"kind"` // "synthetic", "f3d" or "euler"
	Name string `json:"name"`
	// Steps is the number of time steps (f3d), sweeps (euler) or
	// profile repetitions (synthetic). Default 10.
	Steps int `json:"steps"`

	// synthetic: one parallel loop class of work_cycles spread over
	// parallelism units with sync_events regions per step, plus
	// serial_cycles of unparallelized work. work_scale converts cycles
	// to spin iterations (default 1).
	Parallelism  int     `json:"parallelism"`
	WorkCycles   float64 `json:"work_cycles"`
	SerialCycles float64 `json:"serial_cycles"`
	SyncEvents   int     `json:"sync_events"`
	WorkScale    float64 `json:"work_scale"`

	// f3d: zone dimensions "JxKxL" and initial pulse amplitude.
	Dims  string  `json:"dims"`
	Pulse float64 `json:"pulse"`

	// euler: characteristic-sweep batch size.
	Points int `json:"points"`

	// TimeoutSec, when positive, is this job's run deadline in
	// seconds, at least 1 ns and at most maxTimeoutSec; negative opts
	// out of any deadline. Zero inherits the daemon's -job-timeout
	// default.
	TimeoutSec float64 `json:"timeout_sec"`
}

// timeout is the submission's run deadline as sched reads it: -1 opts
// out, 0 inherits the daemon default.
func (req *submitRequest) timeout() time.Duration {
	if req.TimeoutSec < 0 {
		return -1
	}
	return time.Duration(req.TimeoutSec * float64(time.Second))
}

// buildJob validates a submission and constructs the scheduler job.
func buildJob(req *submitRequest) (sched.Job, error) {
	kind := strings.ToLower(req.Kind)
	if req.Name == "" {
		req.Name = kind
	}
	if req.TimeoutSec > maxTimeoutSec || (req.TimeoutSec > 0 && req.timeout() == 0) {
		return nil, fmt.Errorf("timeout_sec must be negative, 0 or in [1e-9, %g], got %g", maxTimeoutSec, req.TimeoutSec)
	}
	if req.Steps == 0 {
		req.Steps = 10
	}
	if req.Steps < 1 || req.Steps > maxSteps {
		return nil, fmt.Errorf("steps must be in [1, %d], got %d", maxSteps, req.Steps)
	}
	switch kind {
	case "synthetic":
		if req.Parallelism == 0 {
			req.Parallelism = 8
		}
		if req.Parallelism < 1 || req.Parallelism > maxParallelism {
			return nil, fmt.Errorf("parallelism must be in [1, %d], got %d", maxParallelism, req.Parallelism)
		}
		if req.WorkCycles == 0 {
			req.WorkCycles = 1e6
		}
		if req.WorkCycles < 0 || req.SerialCycles < 0 {
			return nil, fmt.Errorf("work_cycles and serial_cycles must be >= 0")
		}
		if req.SyncEvents < 1 {
			req.SyncEvents = 1
		}
		if req.SyncEvents > maxParallelism {
			// Cancellation is checked between steps, so a step's regions
			// must stay bounded.
			return nil, fmt.Errorf("sync_events must be <= %d, got %d", maxParallelism, req.SyncEvents)
		}
		if req.WorkScale == 0 {
			req.WorkScale = 1
		}
		if req.WorkScale < 0 {
			return nil, fmt.Errorf("work_scale must be > 0, got %g", req.WorkScale)
		}
		if req.WorkCycles*req.WorkScale >= maxSpin || req.SerialCycles*req.WorkScale >= maxSpin {
			return nil, fmt.Errorf("work_cycles and serial_cycles times work_scale must be < 2^53")
		}
		p := model.StepProfile{
			Loops: []model.LoopClass{{
				Name:        "loop",
				WorkCycles:  req.WorkCycles,
				Parallelism: req.Parallelism,
				SyncEvents:  req.SyncEvents,
			}},
			SerialCycles: req.SerialCycles,
		}
		return sched.NewSyntheticJob(req.Name, p, req.Steps, req.WorkScale), nil
	case "f3d":
		j, k, l, err := parseDims(req.Dims)
		if err != nil {
			return nil, err
		}
		job, err := f3d.NewJob(req.Name, f3d.DefaultConfig(grid.Single(j, k, l)), req.Steps, req.Pulse)
		if err != nil {
			return nil, err // not a typed-nil sched.Job
		}
		return job, nil
	case "euler":
		if req.Points == 0 {
			req.Points = 1024
		}
		if req.Points < 1 || req.Points > maxPoints {
			return nil, fmt.Errorf("points must be in [1, %d], got %d", maxPoints, req.Points)
		}
		return euler.NewSweepJob(req.Name, req.Points, req.Steps), nil
	default:
		return nil, fmt.Errorf("unknown kind %q (want synthetic, f3d or euler)", req.Kind)
	}
}

// parseDims parses "JxKxL" with per-dimension and total-size limits.
func parseDims(s string) (j, k, l int, err error) {
	if s == "" {
		return 0, 0, 0, fmt.Errorf("f3d jobs need dims (e.g. \"33x25x21\")")
	}
	parts := strings.Split(strings.ToLower(s), "x")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("dims must be JxKxL, got %q", s)
	}
	var d [3]int
	for i, p := range parts {
		d[i], err = strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return 0, 0, 0, fmt.Errorf("dims must be JxKxL, got %q", s)
		}
		if d[i] < minDim || d[i] > maxDim {
			return 0, 0, 0, fmt.Errorf("each dimension must be in [%d, %d], got %d", minDim, maxDim, d[i])
		}
	}
	if d[0]*d[1]*d[2] > maxCells {
		return 0, 0, 0, fmt.Errorf("zone too large: %dx%dx%d exceeds %d cells", d[0], d[1], d[2], maxCells)
	}
	return d[0], d[1], d[2], nil
}

// decodeSubmit parses a POST /jobs body strictly: one JSON object, no
// unknown fields, nothing after it.
func decodeSubmit(body io.Reader) (submitRequest, error) {
	var req submitRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return req, errors.New("trailing data after JSON object")
	}
	return req, nil
}

func (sv *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeSubmit(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		serve.Error(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	job, err := buildJob(&req)
	if err != nil {
		serve.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	h, err := sv.sched.SubmitWithOptions(job, sched.SubmitOptions{Timeout: req.timeout()})
	switch {
	case errors.Is(err, sched.ErrQueueFull):
		serve.Error(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, sched.ErrDraining):
		serve.Error(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		serve.Error(w, http.StatusInternalServerError, err.Error())
		return
	}
	serve.WriteJSON(w, http.StatusAccepted, h.Status())
}

func (sv *server) handleList(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, sv.sched.Jobs())
}

func (sv *server) handleJob(w http.ResponseWriter, r *http.Request) {
	if h, ok := sv.handle(w, r); ok {
		serve.WriteJSON(w, http.StatusOK, h.Status())
	}
}

const resultWait = 10 * time.Second // well under common client timeouts

// resultCode encodes a terminal state in GET /jobs/{id}/result's status.
var resultCode = map[sched.State]int{
	sched.StateDone:     http.StatusOK,
	sched.StateFailed:   http.StatusInternalServerError,
	sched.StateTimedOut: http.StatusGatewayTimeout,
	sched.StateCanceled: http.StatusConflict,
}

// handleResult reports a job's outcome in the HTTP status (resultCode),
// so curl -f and retrying clients need no JSON parsing. A queued or
// running job is waited for until it ends, the client hangs up or
// resultWait passes (then 202): one request, not polls that each
// preempt the job's team (DESIGN §15).
func (sv *server) handleResult(w http.ResponseWriter, r *http.Request) {
	h, ok := sv.handle(w, r)
	if !ok {
		return
	}
	bound, stop := sv.cfg.clock.Timer(resultWait)
	select {
	case <-h.Done():
	case <-bound:
	case <-r.Context().Done():
	}
	stop()
	st := h.Status()
	serve.WriteJSON(w, cmp.Or(resultCode[st.State], http.StatusAccepted), st)
}

func (sv *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	h, ok := sv.handle(w, r)
	if !ok {
		return
	}
	// A finished job cannot be canceled: that is a state conflict, not a
	// missing resource.
	if err := sv.sched.Cancel(h.ID()); errors.Is(err, sched.ErrTerminal) {
		serve.Error(w, http.StatusConflict, err.Error())
		return
	}
	serve.WriteJSON(w, http.StatusOK, h.Status())
}

// healthzReply is the GET /healthz body: a readiness snapshot a
// cluster coordinator (or a load balancer) can route on. Draining
// answers 503 so new work stops arriving, while the shard API stays
// mounted so an in-flight lockstep solve can still finish its steps.
type healthzReply struct {
	Status  string `json:"status"` // "ok" or "draining"
	Queued  int    `json:"queued"`
	Running int    `json:"running"`
	InUse   int    `json:"in_use"`
	Procs   int    `json:"procs"`
	Shards  int    `json:"shards"`
	// TraceTotal / TraceDropped are the tracer ring's lifetime
	// counters, so a reader can tell whether the ring has wrapped
	// without a /trace round-trip.
	TraceTotal   uint64 `json:"trace_total"`
	TraceDropped uint64 `json:"trace_dropped"`
}

func (sv *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	m := sv.sched.Metrics()
	tr := sv.sched.Tracer()
	reply := healthzReply{
		Status:       "ok",
		Queued:       m.Queued,
		Running:      m.Running,
		InUse:        m.InUse,
		Procs:        m.Procs,
		Shards:       sv.shards.ShardCount(),
		TraceTotal:   tr.Total(),
		TraceDropped: tr.Dropped(),
	}
	code := http.StatusOK
	if sv.sched.Draining() {
		reply.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	serve.WriteJSON(w, code, reply)
}

// handle answers for the job the path names: a handle, which outlives
// the table's entry, or a 400 (bad ID) or 404 (no such job) written.
func (sv *server) handle(w http.ResponseWriter, r *http.Request) (*sched.Handle, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		serve.Error(w, http.StatusBadRequest, "bad job id "+strconv.Quote(r.PathValue("id")))
		return nil, false
	}
	h, err := sv.sched.Handle(id)
	if err != nil {
		serve.Error(w, http.StatusNotFound, err.Error())
		return nil, false
	}
	return h, true
}
