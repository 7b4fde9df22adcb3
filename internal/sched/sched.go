package sched

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/parloop"
	"repro/internal/simclock"
)

// Errors returned by the scheduler's admission and control surface.
var (
	// ErrQueueFull is returned by Submit when the bounded queue is at
	// capacity — the backpressure signal callers (and the daemon's HTTP
	// layer) propagate upstream instead of buffering unboundedly.
	ErrQueueFull = errors.New("sched: queue full")
	// ErrDraining is returned by Submit after Drain or Close began.
	ErrDraining = errors.New("sched: scheduler is draining")
	// ErrNotFound is returned for operations on unknown job IDs, and
	// on IDs finished so long ago the table dropped them (maxRetired).
	ErrNotFound = errors.New("sched: no such job")
	// ErrTimeout is the cancellation cause (and job error) when a
	// job's run deadline expires before Run returns.
	ErrTimeout = errors.New("sched: job deadline exceeded")
	// ErrTerminal is returned by Cancel for a job already in a
	// terminal state — nothing is left to cancel.
	ErrTerminal = errors.New("sched: job already finished")
)

// Config configures a Scheduler.
type Config struct {
	// Procs is the processor budget space-shared across jobs; the sum
	// of all concurrent grants never exceeds it. <= 0 defaults to
	// runtime.GOMAXPROCS(0).
	Procs int
	// QueueDepth bounds the number of jobs waiting for processors;
	// Submit fails with ErrQueueFull beyond it. <= 0 defaults to 64.
	QueueDepth int
	// Clock is the time source for timestamps, deadlines and
	// timeouts. nil defaults to the wall clock; tests install a
	// simclock.Virtual to drive deadlines deterministically.
	Clock simclock.Clock
	// DefaultTimeout bounds the running time of jobs submitted without
	// an explicit per-job timeout. <= 0 means no deadline. The
	// deadline starts when the job is granted processors, not at
	// submission, so queue wait never eats a job's budget.
	DefaultTimeout time.Duration
	// Tracer receives grant/resize/preempt events and is attached to
	// every job's team, so region, barrier and chunk spans come out
	// tagged with the job name. nil creates a private disabled tracer
	// (events cost one atomic load until enabled).
	Tracer *obs.Tracer
	// Metrics is the registry the scheduler registers its counters,
	// gauges and grant histogram in. nil creates a private registry. A
	// registry must back at most one scheduler: counters are looked up
	// by name, so two schedulers on one registry would share them.
	Metrics *obs.Registry
}

// Scheduler space-shares a fixed processor budget across concurrent
// jobs. See the package comment for the allocation policy.
type Scheduler struct {
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond // broadcast on every queue/running transition
	free    int
	queue   []*record // FIFO of admitted, not-yet-running jobs
	running map[uint64]*record
	jobs    map[uint64]*record
	retired []uint64 // terminal jobs still in the table, oldest finish first
	nextID  uint64

	draining bool
	wg       sync.WaitGroup // one entry per running job goroutine

	// Counters live in the obs registry as lock-free atomics, so the
	// /metrics scrape path never races the scheduler: increments
	// happen wherever they occur (with or without mu) and readers
	// never need the mutex. Gauges derived from mu-guarded structures
	// (queue depth, free processors) are registered as GaugeFuncs that
	// take mu themselves at scrape time.
	reg    *obs.Registry
	tracer *obs.Tracer

	ctrSubmitted, ctrRejected                 *obs.Counter
	ctrCompleted, ctrFailed, ctrCanceled      *obs.Counter
	ctrTimedOut, ctrCanceledQueued, ctrPanics *obs.Counter
	ctrResizes, ctrPreempts                   *obs.Counter
	ctrDoneSyncEvents                         *obs.Counter // sync events of finished jobs
	gMaxInUse                                 *obs.Gauge   // high-water processors in use (updated under mu)
	hGrant                                    *obs.Histogram

	clock simclock.Clock
}

// New creates a scheduler with the given configuration.
func New(cfg Config) *Scheduler {
	if cfg.Procs <= 0 {
		cfg.Procs = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	if cfg.Tracer == nil {
		cfg.Tracer = obs.NewTracer(4096, cfg.Clock)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	s := &Scheduler{
		cfg:     cfg,
		free:    cfg.Procs,
		running: make(map[uint64]*record),
		jobs:    make(map[uint64]*record),
		clock:   cfg.Clock,
		reg:     cfg.Metrics,
		tracer:  cfg.Tracer,
	}
	s.cond = sync.NewCond(&s.mu)
	s.registerMetrics()
	return s
}

// registerMetrics creates the scheduler's counters, gauges and the
// grant-size histogram in its registry.
func (s *Scheduler) registerMetrics() {
	r := s.reg
	s.ctrSubmitted = r.Counter("sched_submitted_total", "Jobs admitted to the queue.")
	s.ctrRejected = r.Counter("sched_rejected_total", "Submissions refused (queue full or draining).")
	s.ctrCompleted = r.Counter("sched_completed_total", "Jobs that finished successfully.")
	s.ctrFailed = r.Counter("sched_failed_total", "Jobs that returned an error or panicked.")
	s.ctrCanceled = r.Counter("sched_canceled_total", "Jobs canceled while queued or running.")
	s.ctrTimedOut = r.Counter("sched_timed_out_total", "Jobs whose run deadline expired.")
	s.ctrCanceledQueued = r.Counter("sched_canceled_queued_total", "Canceled jobs that never received processors.")
	s.ctrPanics = r.Counter("sched_panics_total", "Failed jobs whose cause was a panic.")
	s.ctrResizes = r.Counter("sched_resizes_total", "Grant resizes applied at job checkpoints.")
	s.ctrPreempts = r.Counter("sched_preempts_total", "Shrink requests issued to admit queued work.")
	s.ctrDoneSyncEvents = r.Counter("sched_done_sync_events_total", "Synchronization events of finished jobs' teams.")
	s.gMaxInUse = r.Gauge("sched_max_inuse_procs", "High-water mark of processors in use.")
	s.hGrant = r.Histogram("sched_grant_procs", "Processor counts at grant and applied resize (plateau occupancy).",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128})
	r.GaugeFunc("sched_procs", "Processor budget space-shared across jobs.", func() float64 {
		return float64(s.cfg.Procs)
	})
	// locked reads, at scrape time, a value s.mu guards.
	locked := func(f func() int) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(f())
		}
	}
	r.GaugeFunc("sched_free_procs", "Processors not accounted to any job.", locked(func() int { return s.free }))
	r.GaugeFunc("sched_inuse_procs", "Processors granted to running jobs.", locked(s.inUseLocked))
	r.GaugeFunc("sched_queue_depth", "Jobs admitted and waiting for processors.", locked(func() int { return len(s.queue) }))
	r.GaugeFunc("sched_running_jobs", "Jobs started and not yet ended, parked jobs (which hold no processors) included.", locked(func() int { return len(s.running) }))
	r.GaugeFunc("sched_sync_events_total", "Synchronization events across finished and running jobs' teams.",
		locked(func() int { return int(s.syncEventsLocked()) }))
}

// emit records a scheduler trace event when tracing is enabled. c
// carries the job's requested parallelism M on resize and preempt
// events so occupancy analysis can bind them to a loop even when the
// original grant event has been overwritten by ring wraparound.
func (s *Scheduler) emit(k obs.Kind, name string, a, b, c int64) {
	if !s.tracer.Enabled() {
		return
	}
	s.tracer.Emit(obs.Event{Kind: k, Name: name, Worker: -1, A: a, B: b, C: c})
}

// Tracer returns the scheduler's event tracer (never nil; disabled
// until enabled by the operator, e.g. via f3dd's POST /trace/enable).
func (s *Scheduler) Tracer() *obs.Tracer { return s.tracer }

// Registry returns the metrics registry holding the scheduler's
// counters; the daemon renders it at GET /metrics.
func (s *Scheduler) Registry() *obs.Registry { return s.reg }

// inUseLocked sums the processors accounted to running jobs. Caller
// holds s.mu.
func (s *Scheduler) inUseLocked() int {
	inUse := 0
	for _, rec := range s.running {
		inUse += rec.granted
	}
	return inUse
}

// syncEventsLocked totals sync events across finished and running
// teams. Caller holds s.mu.
func (s *Scheduler) syncEventsLocked() uint64 {
	sync := s.ctrDoneSyncEvents.Value()
	for _, rec := range s.running {
		if rec.team != nil {
			sync += rec.team.SyncEvents()
		}
	}
	return sync
}

// Procs returns the scheduler's processor budget.
func (s *Scheduler) Procs() int { return s.cfg.Procs }

// Handle refers to a submitted job.
type Handle struct {
	s   *Scheduler
	rec *record
}

// ID returns the job's scheduler-assigned ID.
func (h *Handle) ID() uint64 { return h.rec.id }

// Done returns a channel closed when the job reaches a terminal state.
func (h *Handle) Done() <-chan struct{} { return h.rec.done }

// Wait blocks until the job finishes or ctx expires, returning the
// job's error (nil for success, the context error for cancellation).
func (h *Handle) Wait(ctx context.Context) error {
	select {
	case <-h.rec.done:
		h.s.mu.Lock()
		defer h.s.mu.Unlock()
		return h.rec.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Status returns a snapshot of the job.
func (h *Handle) Status() JobStatus {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	return h.rec.snapshotLocked(h.s.clock.Now())
}

// Cancel requests cancellation of the job (see Scheduler.Cancel).
func (h *Handle) Cancel() { _ = h.s.Cancel(h.rec.id) }

// SubmitOptions tunes one submission.
type SubmitOptions struct {
	// Timeout bounds the job's running time (measured from the grant,
	// not from submission). 0 inherits Config.DefaultTimeout; negative
	// disables the deadline for this job.
	Timeout time.Duration
}

// Submit admits a job to the queue and triggers dispatch. It returns
// ErrQueueFull when the queue is at capacity (backpressure) and
// ErrDraining once shutdown has begun. A job reporting Parallelism()
// < 1 is treated as serial (M = 1).
func (s *Scheduler) Submit(j Job) (*Handle, error) {
	return s.SubmitWithOptions(j, SubmitOptions{})
}

// SubmitWithOptions is Submit with per-job options (run timeout).
func (s *Scheduler) SubmitWithOptions(j Job, opts SubmitOptions) (*Handle, error) {
	m := j.Parallelism()
	if m < 1 {
		m = 1
	}
	// Zero inherits the default deadline; negative opts out of any.
	timeout := max(cmp.Or(opts.Timeout, s.cfg.DefaultTimeout), 0)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.ctrRejected.Inc()
		return nil, ErrDraining
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		s.ctrRejected.Inc()
		return nil, ErrQueueFull
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	s.nextID++
	rec := &record{
		id:        s.nextID,
		job:       j,
		state:     StateQueued,
		requested: m,
		timeout:   timeout,
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		submitted: s.clock.Now(),
	}
	s.jobs[rec.id] = rec
	s.queue = append(s.queue, rec)
	s.ctrSubmitted.Inc()
	s.dispatchLocked()
	s.cond.Broadcast()
	return &Handle{s: s, rec: rec}, nil
}

// dispatchLocked starts queued jobs while free processors remain,
// granting each the largest plateau that fits; with the queue still
// blocked and no processor free it asks the largest running job to drop
// one plateau, so queued work is admitted instead of starving. It never
// grows a job: idle processors are taken at a job's own Checkpoint.
// Caller holds s.mu.
func (s *Scheduler) dispatchLocked() {
	for len(s.queue) > 0 && s.free > 0 {
		rec := s.queue[0]
		p := PlateauGrant(rec.requested, s.free)
		s.queue = s.queue[1:]
		s.free -= p
		rec.granted, rec.target = p, p
		s.emit(obs.KindGrant, rec.job.Name(), int64(p), int64(rec.requested), 0)
		s.hGrant.Observe(float64(p))
		if rec.wake != nil { // a parked job resumes on its own goroutine
			close(rec.wake)
			rec.wake = nil
			continue
		}
		rec.state = StateRunning
		rec.started = s.clock.Now()
		rec.deadline = rec.started.Add(rec.timeout)
		s.running[rec.id] = rec
		s.wg.Add(1)
		go s.runJob(rec)
	}
	if len(s.queue) > 0 && s.free == 0 {
		s.requestShrinkLocked()
	}
	if used := s.cfg.Procs - s.free; float64(used) > s.gMaxInUse.Value() {
		s.gMaxInUse.Set(float64(used))
	}
}

// requestShrinkLocked asks the running job with the largest settled
// grant to drop one plateau so the queue head can be admitted. The
// shrink is cooperative: it takes effect (and frees processors) at the
// victim's next Checkpoint. A job whose target differs from its grant
// is shrinking already. Caller holds s.mu.
func (s *Scheduler) requestShrinkLocked() {
	var victim *record
	for _, rec := range s.running {
		if rec.target != rec.granted || rec.granted <= 1 {
			continue // shrink already pending, or nothing to give
		}
		if victim == nil || rec.granted > victim.granted ||
			(rec.granted == victim.granted && rec.id < victim.id) {
			victim = rec
		}
	}
	if victim == nil {
		return
	}
	if p := NextLowerPlateau(victim.requested, victim.granted); p >= 1 {
		victim.target = p
		s.ctrPreempts.Inc()
		s.emit(obs.KindPreempt, victim.job.Name(), int64(victim.granted), int64(p), int64(victim.requested))
	}
}

// runJob executes one granted job on its own goroutine.
func (s *Scheduler) runJob(rec *record) {
	defer s.wg.Done()
	team := parloop.NewTeam(rec.granted)
	team.SetTracer(s.tracer, rec.job.Name())
	s.mu.Lock()
	rec.team = team
	s.mu.Unlock()

	if rec.timeout > 0 {
		go s.watchDeadline(rec)
	}

	g := &Grant{s: s, rec: rec, team: team}
	err, panicked := runSafely(rec.job, g)
	sync := team.SyncEvents()
	team.Close()

	s.mu.Lock()
	// A shrink never applied was never credited; granted stays at its
	// final value for status reporting.
	s.free += rec.granted
	rec.finished = s.clock.Now()
	rec.syncEvents = sync
	s.ctrDoneSyncEvents.Add(sync)
	rec.err = err
	// A panic always classifies as a failure, even if the job was also
	// canceled or timed out: a crash is worth surfacing over the
	// concurrent administrative action.
	switch {
	case panicked:
		rec.state = StateFailed
		rec.cause = CausePanic
		s.ctrFailed.Inc()
		s.ctrPanics.Inc()
	case errors.Is(context.Cause(rec.ctx), ErrTimeout):
		rec.state = StateTimedOut
		rec.cause = CauseTimeout
		if err == nil || errors.Is(err, context.Canceled) {
			rec.err = ErrTimeout
		}
		s.ctrTimedOut.Inc()
	case rec.ctx.Err() != nil:
		rec.state = StateCanceled
		rec.cause = CauseCanceledRunning
		if err == nil {
			rec.err = rec.ctx.Err()
		}
		s.ctrCanceled.Inc()
	case err != nil:
		rec.state = StateFailed
		rec.cause = CauseError
		s.ctrFailed.Inc()
	default:
		rec.state = StateDone
		s.ctrCompleted.Inc()
	}
	rec.cancel(nil)
	delete(s.running, rec.id)
	s.retireLocked(rec)
	close(rec.done)
	s.dispatchLocked()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// watchDeadline cancels the job with ErrTimeout once the clock passes
// its deadline, re-arming for the rest when a resume moved it. It
// exits as soon as the job finishes, stopping its timer.
func (s *Scheduler) watchDeadline(rec *record) {
	for wait := rec.timeout; wait > 0; {
		fired, stop := s.clock.Timer(wait)
		select {
		case <-fired:
		case <-rec.done:
			stop()
			return
		}
		s.mu.Lock()
		wait = rec.deadline.Sub(s.clock.Now())
		s.mu.Unlock()
	}
	rec.cancel(ErrTimeout)
}

// runSafely invokes Run, converting a panic into an error so one bad
// job cannot take the scheduler down. A worker panic inside one of the
// job's parallel regions arrives here as a *parloop.PanicError (the
// region's barrier was already broken and the team joined cleanly);
// any other panic on the job goroutine is caught directly.
func runSafely(j Job, g *Grant) (err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			if pe, ok := r.(*parloop.PanicError); ok {
				err = fmt.Errorf("sched: job %q: %w", j.Name(), pe)
			} else {
				err = fmt.Errorf("sched: job %q panicked: %v", j.Name(), r)
			}
		}
	}()
	return j.Run(g), false
}

// Cancel requests cancellation of the job with the given ID. A queued
// job is removed immediately, releasing its queue slot without ever
// holding processors; a running job is signaled through its context
// and finishes at its next Checkpoint. Canceling a job already in a
// terminal state returns ErrTerminal.
func (s *Scheduler) Cancel(id uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	if !ok {
		return ErrNotFound
	}
	switch rec.state {
	case StateQueued:
		s.queue = slices.DeleteFunc(s.queue, func(q *record) bool { return q == rec })
		s.cancelQueuedLocked(rec)
		s.dispatchLocked()
		s.cond.Broadcast()
	case StateRunning:
		rec.cancel(nil)
	default:
		return ErrTerminal
	}
	return nil
}

// cancelQueuedLocked finishes a job that never started: it is marked
// canceled with the queued-specific cause so accounting distinguishes
// it from a running cancel. The caller has already removed it from
// the queue; it never held processors. Caller holds s.mu.
func (s *Scheduler) cancelQueuedLocked(rec *record) {
	rec.cancel(nil)
	rec.state = StateCanceled
	rec.cause = CauseCanceledQueued
	rec.finished = s.clock.Now()
	rec.err = context.Canceled
	s.ctrCanceled.Inc()
	s.ctrCanceledQueued.Inc()
	s.retireLocked(rec)
	close(rec.done)
}

// maxRetired bounds the job table: the scheduler remembers this many
// most recently finished jobs.
const maxRetired = 4096

// retireLocked records that rec reached a terminal state and forgets
// the oldest finished job beyond maxRetired: it leaves the table and
// the listing, and its ID answers like one never issued. Queued and
// running jobs are never forgotten, and a Handle keeps its record.
// Caller holds s.mu.
func (s *Scheduler) retireLocked(rec *record) {
	s.retired = append(s.retired, rec.id)
	if len(s.retired) > maxRetired {
		delete(s.jobs, s.retired[0])
		s.retired = s.retired[1:]
	}
}

// Handle returns a handle on job id; it outlives the table's entry.
func (s *Scheduler) Handle(id uint64) (*Handle, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return &Handle{s: s, rec: rec}, nil
}

// Jobs returns snapshots of all jobs in submission (that is, ID) order.
func (s *Scheduler) Jobs() []JobStatus {
	s.mu.Lock()
	now := s.clock.Now()
	out := make([]JobStatus, 0, len(s.jobs))
	for _, rec := range s.jobs {
		out = append(out, rec.snapshotLocked(now))
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Metrics is a point-in-time view of the scheduler's accounting.
type Metrics struct {
	// Procs is the budget; InUse the processors granted to running
	// jobs; Free the remainder. InUse + Free == Procs always.
	Procs int `json:"procs"`
	InUse int `json:"in_use"`
	Free  int `json:"free"`
	// MaxInUse is the high-water mark of InUse over the scheduler's
	// lifetime — the budget-invariant witness (never exceeds Procs).
	MaxInUse int `json:"max_in_use"`

	Queued  int `json:"queued"`
	Running int `json:"running"`

	Submitted uint64 `json:"submitted"`
	Rejected  uint64 `json:"rejected"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Canceled  uint64 `json:"canceled"`
	// TimedOut counts jobs whose run deadline expired (a terminal
	// state distinct from Failed and Canceled).
	TimedOut uint64 `json:"timed_out"`
	// CanceledQueued is the subset of Canceled that never started —
	// canceled straight out of the queue, having held no processors.
	CanceledQueued uint64 `json:"canceled_queued"`
	// Panics is the subset of Failed caused by a panic in Run or in a
	// worker inside one of the job's parallel regions.
	Panics uint64 `json:"panics"`
	// Resizes counts applied grant changes (grow and shrink).
	Resizes uint64 `json:"resizes"`
	// Preempts counts shrink requests issued to running jobs so queued
	// work could be admitted (each becomes a Resize once applied).
	Preempts uint64 `json:"preempts"`
	// SyncEvents totals fork-join regions across finished and running
	// jobs' teams.
	SyncEvents uint64 `json:"sync_events"`
}

// Metrics returns current counters and gauges. The counters are read
// from the registry's atomics; the mutex only guards the structural
// gauges (queue depth, running set, free processors), so a scrape can
// never observe a torn counter regardless of what the scheduler is
// doing. The same numbers are exported in Prometheus text form
// through Registry.
func (s *Scheduler) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Metrics{
		Procs:          s.cfg.Procs,
		InUse:          s.inUseLocked(),
		Free:           s.free,
		MaxInUse:       int(s.gMaxInUse.Value()),
		Queued:         len(s.queue),
		Running:        len(s.running),
		Submitted:      s.ctrSubmitted.Value(),
		Rejected:       s.ctrRejected.Value(),
		Completed:      s.ctrCompleted.Value(),
		Failed:         s.ctrFailed.Value(),
		Canceled:       s.ctrCanceled.Value(),
		TimedOut:       s.ctrTimedOut.Value(),
		CanceledQueued: s.ctrCanceledQueued.Value(),
		Panics:         s.ctrPanics.Value(),
		Resizes:        s.ctrResizes.Value(),
		Preempts:       s.ctrPreempts.Value(),
		SyncEvents:     s.syncEventsLocked(),
	}
}

// Draining reports whether Drain or Close has begun. The daemon's
// readiness endpoint flips unhealthy on it, so coordinators stop
// routing new work to a worker that is shutting down.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops admission and waits until every queued and running job
// has finished, or ctx expires. It is the graceful-shutdown path: the
// daemon calls it on SIGTERM before exiting.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		s.mu.Lock()
		for len(s.queue) > 0 || len(s.running) > 0 {
			s.cond.Wait()
		}
		s.mu.Unlock()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		// Wake the waiter so it can observe state and exit; it will
		// close idle when the scheduler eventually goes quiet.
		s.cond.Broadcast()
		return ctx.Err()
	}
}

// Close cancels every queued and running job and waits for running
// jobs to return. The scheduler accepts no work afterwards.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.draining = true
	for _, rec := range s.queue {
		if rec.state == StateQueued { // not a parked job
			s.cancelQueuedLocked(rec)
		}
	}
	s.queue = nil
	for _, rec := range s.running {
		rec.cancel(nil)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}
