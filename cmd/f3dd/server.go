package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/euler"
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
	minDim         = 3 // a zone needs an interior point between two faces
	maxDim         = 128
	maxCells       = 1 << 20
	maxPoints      = 1 << 20
	maxParallelism = 1 << 16
	// maxSpin bounds a synthetic job's spin counts (cycles times
	// work_scale): below 2^53 every count is an exact float64 and
	// converts to int without overflow.
	maxSpin = 1 << 53
)

// serverConfig tunes the HTTP layer's fault handling. The clock is
// injectable so retry backoff is testable on virtual time.
type serverConfig struct {
	// clock times retry backoff. nil defaults to the real clock.
	clock simclock.Clock
	// submitRetries is how many times a queue-full submission is
	// retried in-handler before surfacing 429 to the client.
	submitRetries int
	// retryBackoff is the first retry's wait; it doubles per attempt.
	// <= 0 with retries enabled defaults to 50ms.
	retryBackoff time.Duration
	// node tags this daemon's trace events in merged fleet timelines
	// (the -node flag; the listen address by default).
	node string
	// autopar, when true, phase-traces every f3d submission and serves
	// evidence-driven plans on GET /jobs/{id}/plan; submissions may
	// then carry plan_from to rerun a case under a derived plan.
	autopar bool
	// autoparSyncCost overrides the planner's assumed cost of one
	// synchronization in cycles — the Table 1 column the budget
	// verdicts divide by. 0 keeps the model default (10k cycles).
	autoparSyncCost float64
}

func (c serverConfig) withDefaults() serverConfig {
	if c.clock == nil {
		c.clock = simclock.Real{}
	}
	if c.retryBackoff <= 0 {
		c.retryBackoff = 50 * time.Millisecond
	}
	return c
}

// server is the HTTP surface of the f3dd daemon. Every route is a thin
// translation between JSON and the scheduler: admission errors map to
// backpressure status codes (429 queue full after bounded in-handler
// retries, 503 draining) so clients can retry instead of piling work
// up inside the process, and terminal job states map to distinct
// result statuses (200 done, 500 failed, 504 timed out, 409 canceled).
type server struct {
	sched  *sched.Scheduler
	shards *cluster.ShardServer
	cfg    serverConfig
	mux    *http.ServeMux
	// planSeq numbers the -autopar jobs, so each traces its phases
	// under a prefix of its own even when names repeat.
	planSeq atomic.Uint64
}

func newServer(s *sched.Scheduler, cfg serverConfig) *server {
	sv := &server{
		sched:  s,
		shards: cluster.NewShardServer(cluster.NewHost()),
		cfg:    cfg.withDefaults(),
		mux:    http.NewServeMux(),
	}
	sv.mux.HandleFunc("POST /jobs", sv.handleSubmit)
	sv.mux.HandleFunc("GET /jobs", sv.handleList)
	sv.mux.HandleFunc("GET /jobs/{id}", sv.handleJob)
	sv.mux.HandleFunc("GET /jobs/{id}/plan", sv.handlePlan)
	sv.mux.HandleFunc("GET /jobs/{id}/result", sv.handleResult)
	sv.mux.HandleFunc("POST /jobs/{id}/cancel", sv.handleCancel)
	serve.Surface{
		Metrics: s.Registry().WritePrometheus,
		Tracer:  s.Tracer(),
		Analyze: sv.analyzeReport,
	}.Mount(sv.mux)
	sv.mux.HandleFunc("GET /healthz", sv.handleHealthz)
	sv.mux.Handle("POST /shards/", sv.shards)
	// Shard-step and exchange handling report into the scheduler's
	// tracer under this daemon's node tag, so a cluster coordinator's
	// collector can attribute lockstep steps to it.
	sv.shards.Host().SetObs(sv.cfg.node, s.Tracer())
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
	// seconds; negative opts out of any deadline. Zero inherits the
	// daemon's -job-timeout default.
	TimeoutSec float64 `json:"timeout_sec"`

	// PlanFrom (f3d, needs -autopar) reruns under the plan derived
	// from the named job's phase trace: the new job's step shape is
	// the lowered plan, and dims/pulse/steps default to the source
	// job's, so run N's evidence reconfigures run N+1.
	PlanFrom uint64 `json:"plan_from"`
}

// buildJob validates a submission and constructs the scheduler job.
func (sv *server) buildJob(req *submitRequest) (sched.Job, error) {
	kind := strings.ToLower(req.Kind)
	if req.Name == "" {
		req.Name = kind
	}
	if kind == "f3d" && req.PlanFrom != 0 {
		// An omitted steps is the source job's, not the default.
		return sv.applyPlanFrom(req)
	}
	if err := checkSteps(req); err != nil {
		return nil, err
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
		return sv.buildF3D(req)
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

// checkSteps defaults an omitted steps to 10 and bounds it.
func checkSteps(req *submitRequest) error {
	if req.Steps == 0 {
		req.Steps = 10
	}
	if req.Steps < 1 || req.Steps > maxSteps {
		return fmt.Errorf("steps must be in [1, %d], got %d", maxSteps, req.Steps)
	}
	return nil
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
	job, err := sv.buildJob(&req)
	if err != nil {
		serve.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	var opts sched.SubmitOptions // zero inherits sched.Config.DefaultTimeout
	switch {
	case req.TimeoutSec > 0:
		opts.Timeout = time.Duration(req.TimeoutSec * float64(time.Second))
	case req.TimeoutSec < 0:
		opts.Timeout = -1
	}
	h, err := sv.submitWithRetry(r, job, opts)
	switch {
	case errors.Is(err, sched.ErrQueueFull):
		serve.Error(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, sched.ErrDraining):
		serve.Error(w, http.StatusServiceUnavailable, err.Error())
		return
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// Client went away mid-backoff; nobody is reading the reply.
		serve.Error(w, statusClientClosedRequest, err.Error())
		return
	case err != nil:
		serve.Error(w, http.StatusInternalServerError, err.Error())
		return
	}
	serve.WriteJSON(w, http.StatusAccepted, h.Status())
}

// statusClientClosedRequest is nginx's non-standard 499: the client
// abandoned the request while we were still backing off.
const statusClientClosedRequest = 499

// submitWithRetry absorbs transient queue-full rejections with bounded
// exponential backoff before giving the client its 429. Draining is
// not transient — it surfaces immediately — and the client hanging up
// cancels the wait.
func (sv *server) submitWithRetry(r *http.Request, job sched.Job, opts sched.SubmitOptions) (*sched.Handle, error) {
	backoff := sv.cfg.retryBackoff
	for attempt := 0; ; attempt++ {
		h, err := sv.sched.SubmitWithOptions(job, opts)
		if err == nil || !errors.Is(err, sched.ErrQueueFull) || attempt >= sv.cfg.submitRetries {
			return h, err
		}
		select {
		case <-sv.cfg.clock.After(backoff):
			backoff *= 2
		case <-r.Context().Done():
			return nil, r.Context().Err()
		}
	}
}

func (sv *server) handleList(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, sv.sched.Jobs())
}

func (sv *server) handleJob(w http.ResponseWriter, r *http.Request) {
	id, ok := jobID(w, r)
	if !ok {
		return
	}
	st, err := sv.sched.Job(id)
	if err != nil {
		serve.Error(w, http.StatusNotFound, err.Error())
		return
	}
	serve.WriteJSON(w, http.StatusOK, st)
}

// handleResult reports a job's outcome with the terminal state encoded
// in the HTTP status, so curl -f and retrying clients need no JSON
// parsing: 200 done, 500 failed, 504 timed out, 409 canceled, and 202
// while the job is still queued or running.
func (sv *server) handleResult(w http.ResponseWriter, r *http.Request) {
	id, ok := jobID(w, r)
	if !ok {
		return
	}
	st, err := sv.sched.Job(id)
	if err != nil {
		serve.Error(w, http.StatusNotFound, err.Error())
		return
	}
	code := http.StatusAccepted
	switch st.State {
	case sched.StateDone:
		code = http.StatusOK
	case sched.StateFailed:
		code = http.StatusInternalServerError
	case sched.StateTimedOut:
		code = http.StatusGatewayTimeout
	case sched.StateCanceled:
		code = http.StatusConflict
	}
	serve.WriteJSON(w, code, st)
}

func (sv *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, ok := jobID(w, r)
	if !ok {
		return
	}
	if err := sv.sched.Cancel(id); err != nil {
		// A finished job cannot be canceled: that is a state conflict,
		// not a missing resource.
		if errors.Is(err, sched.ErrTerminal) {
			serve.Error(w, http.StatusConflict, err.Error())
			return
		}
		serve.Error(w, http.StatusNotFound, err.Error())
		return
	}
	st, err := sv.sched.Job(id)
	if err != nil {
		serve.Error(w, http.StatusNotFound, err.Error())
		return
	}
	serve.WriteJSON(w, http.StatusOK, st)
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
	// counters, so a trace collector can tell how far behind its
	// cursor is without a /trace round-trip.
	TraceTotal   uint64 `json:"trace_total"`
	TraceDropped uint64 `json:"trace_dropped"`
	// NowNs is the daemon's clock at reply time (UnixNano); a
	// coordinator estimates this daemon's clock offset from it and
	// the probe's round-trip midpoint.
	NowNs int64 `json:"now_ns"`
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
		Shards:       sv.shards.Host().ShardCount(),
		TraceTotal:   tr.Total(),
		TraceDropped: tr.Dropped(),
		NowNs:        sv.cfg.clock.Now().UnixNano(),
	}
	code := http.StatusOK
	if sv.sched.Draining() {
		reply.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	serve.WriteJSON(w, code, reply)
}

func jobID(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		serve.Error(w, http.StatusBadRequest, "bad job id "+strconv.Quote(r.PathValue("id")))
		return 0, false
	}
	return id, true
}
