// Package sched is a space-sharing job scheduler for loop-parallel
// solver runs: it packs concurrent jobs onto a fixed processor budget
// the way the paper's stair-step model (Table 3, Figure 1) says an SMP
// should be shared. A job with M units of loop-level parallelism only
// benefits from processor counts on a stair-step plateau — any grant P
// with ceil(M/P) == ceil(M/(P-1)) wastes processors without buying
// speedup — so the scheduler rounds every grant down to the nearest
// plateau (PlateauGrant) and hands the spare processors to the next
// job in the queue. That is the paper's throughput-versus-latency
// argument for the Origin 2000 turned into an admission policy.
//
// Jobs are queued FIFO with a bounded queue (backpressure), run on
// parloop teams created per grant, and may be resized while running:
// a job asked to shrink to admit new work applies the shrink
// cooperatively at its next Checkpoint, between parallel regions, and a
// job that reaches its Checkpoint while the queue is empty takes the
// idle processors that complete its next plateau there. A grow is never
// pending, so a queued job never waits on one. A job
// that serves requests parks between them (Grant.Park), holding no
// processor until its next Checkpoint re-queues it. Jackson &
// Agathokleous's dynamic loop parallelisation (PAPERS.md) is the
// precedent: runtime-adaptive thread counts beat static ones when the
// machine is shared.
package sched

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/parloop"
)

// Job is a schedulable unit of solver work.
//
// Parallelism reports M, the processors the job's work pays for; for
// F3D, euler and synthetic jobs model.StepProfile.MaxParallelism: the
// units of the widest split loop whose work per region pays for a fork
// (an F3D zone's K−2 rows or L−2 planes), or 1 when no loop's work
// does. Its plateaus sit at roughly M/5, M/4, M/3, M/2 and M. The scheduler
// never grants more than M processors and only plateau-efficient counts.
//
// Run executes the job on the granted team. Well-behaved jobs call
// g.Checkpoint() between parallel regions (typically once per time
// step) so the scheduler can apply grant resizes and cancellation; a
// job that never checkpoints still runs correctly but holds its
// initial grant until it returns.
type Job interface {
	Name() string
	Parallelism() int
	Run(g *Grant) error
}

// Grant is a job's lease on processors: the team to run loops on plus
// the cooperative control surface back into the scheduler.
type Grant struct {
	s    *Scheduler
	rec  *record
	team *parloop.Team
}

// Team returns the parloop team sized to the current grant. The team
// may be resized by Checkpoint; callers must not cache Workers()
// across checkpoints.
func (g *Grant) Team() *parloop.Team { return g.team }

// Park returns the job's processors to the pool while it waits for
// work, as a served shard does between its requests; it keeps its state
// and context. It must open no region on its team until its next
// Checkpoint, which queues it, behind the jobs already waiting, for a
// fresh grant and returns once it has one. The run deadline restarts
// then, so it bounds a served job's time since its last request.
func (g *Grant) Park() {
	s, rec := g.s, g.rec
	s.mu.Lock()
	if rec.wake == nil { // parking twice changes nothing
		s.free += rec.granted
		rec.granted, rec.target = 0, 0
		rec.wake = make(chan struct{})
		s.dispatchLocked()
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// Context returns the job's cancellation context. It is canceled by
// Scheduler.Cancel and by Scheduler.Close.
func (g *Grant) Context() context.Context { return g.rec.ctx }

// Checkpoint applies a requested shrink to the team while a job is
// queued, or grows the team onto idle processors while none is (a
// shrink requested for a job that has since left the queue is
// dropped), and reports cancellation. It must be called between
// parallel regions (never while a region is in flight on the team).
// On cancellation it returns the cancellation cause (ErrTimeout when
// the job's deadline expired, context.Canceled for an explicit cancel);
// jobs should return that error from Run.
func (g *Grant) Checkpoint() error {
	if g.rec.ctx.Err() != nil {
		return context.Cause(g.rec.ctx)
	}
	s := g.s
	s.mu.Lock()
	rec := g.rec
	if wake := rec.wake; wake != nil {
		s.queue = append(s.queue, rec)
		s.dispatchLocked()
		s.mu.Unlock()
		select {
		case <-wake:
		case <-rec.ctx.Done():
			s.mu.Lock()
			s.queue = slices.DeleteFunc(s.queue, func(q *record) bool { return q == rec })
			s.mu.Unlock()
			return context.Cause(rec.ctx)
		}
		s.mu.Lock()
		g.team.Resize(rec.granted)
		rec.deadline = s.clock.Now().Add(rec.timeout)
	}
	if len(s.queue) == 0 {
		// A shrink was requested to admit a job that has since left the
		// queue (canceled, or admitted as another job ended): nothing
		// needs it any more.
		rec.target = rec.granted
		// Idle processors go to the first job to checkpoint whose next
		// plateau they complete; growing within a plateau buys no speedup.
		if s.free > 0 && rec.granted < rec.requested {
			if p := PlateauGrant(rec.requested, rec.granted+s.free); p > rec.granted {
				rec.target = p
			}
		}
	}
	if rec.target != rec.granted {
		old := rec.granted
		// Resize between regions is safe: Checkpoint runs on the job's
		// own goroutine, the only opener of regions on this team.
		g.team.Resize(rec.target)
		rec.granted = rec.target
		rec.resizes++
		s.ctrResizes.Inc()
		s.emit(obs.KindResize, rec.job.Name(), int64(old), int64(rec.granted), int64(rec.requested))
		s.hGrant.Observe(float64(rec.granted))
		// A resize moves processors between the job and the pool as it
		// is applied: a shrink's can admit the queue head right away, and
		// dispatch raises the high-water mark after a grow.
		s.free += old - rec.granted
		s.dispatchLocked()
	}
	s.mu.Unlock()
	return nil
}

// State is a job's lifecycle state.
type State int

const (
	// StateQueued: admitted, waiting for processors.
	StateQueued State = iota
	// StateRunning: granted processors and executing.
	StateRunning
	// StateDone: Run returned nil.
	StateDone
	// StateFailed: Run returned an error (or panicked).
	StateFailed
	// StateCanceled: canceled while queued, or Run ended after
	// cancellation.
	StateCanceled
	// StateTimedOut: the job's run deadline expired before Run
	// finished; the scheduler canceled it with ErrTimeout.
	StateTimedOut
)

var stateNames = []string{"queued", "running", "done", "failed", "canceled", "timed-out"}

// String implements fmt.Stringer.
func (s State) String() string { return enumName(stateNames, int(s), "State") }

// MarshalJSON encodes the state as its string name.
func (s State) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON decodes a state from its string name, so JobStatus
// round-trips through the daemon's JSON API.
func (s *State) UnmarshalJSON(b []byte) error {
	return unmarshalEnum(b, stateNames, (*int)(s), "state")
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled || s == StateTimedOut
}

// Cause records why a job left the running (or queued) state — the
// failure taxonomy the chaos harness asserts against. CauseNone means
// the job completed normally (or has not finished yet).
type Cause int

const (
	// CauseNone: still in flight, or completed successfully.
	CauseNone Cause = iota
	// CauseError: Run returned a non-nil error.
	CauseError
	// CausePanic: Run (or a worker inside one of its parallel regions)
	// panicked; the panic was converted into a job error.
	CausePanic
	// CauseTimeout: the run deadline expired and the scheduler
	// canceled the job.
	CauseTimeout
	// CauseCanceledQueued: canceled before it ever received
	// processors; its queue slot was released immediately.
	CauseCanceledQueued
	// CauseCanceledRunning: canceled while running; it stopped at its
	// next checkpoint (or context poll).
	CauseCanceledRunning
)

var causeNames = []string{"none", "error", "panic", "timeout", "canceled-queued", "canceled-running"}

// String implements fmt.Stringer.
func (c Cause) String() string { return enumName(causeNames, int(c), "Cause") }

// MarshalJSON encodes the cause as its string name.
func (c Cause) MarshalJSON() ([]byte, error) { return json.Marshal(c.String()) }

// UnmarshalJSON decodes a cause from its string name.
func (c *Cause) UnmarshalJSON(b []byte) error {
	return unmarshalEnum(b, causeNames, (*int)(c), "cause")
}

// enumName returns names[i], or kind(i) for a value with no name.
func enumName(names []string, i int, kind string) string {
	if i >= 0 && i < len(names) {
		return names[i]
	}
	return fmt.Sprintf("%s(%d)", kind, i)
}

// unmarshalEnum decodes a JSON string that is one of names into *v, its
// index.
func unmarshalEnum(b []byte, names []string, v *int, what string) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	i := slices.Index(names, name)
	if i < 0 {
		return fmt.Errorf("sched: unknown %s %q", what, name)
	}
	*v = i
	return nil
}

// JobStatus is a point-in-time snapshot of a job's lifecycle and
// accounting: the paper-relevant allocation facts (requested M versus
// granted P, plateau speedup) plus queueing and synchronization stats.
type JobStatus struct {
	ID    uint64 `json:"id"`
	Name  string `json:"name"`
	State State  `json:"state"`
	// Requested is the job's parallelism M (the most processors it can
	// use).
	Requested int `json:"requested"`
	// Granted is the current (or final) processor grant, always a
	// stair-step plateau of Requested.
	Granted int `json:"granted"`
	// Speedup is the stair-step model's predicted speedup at the
	// current grant: M/ceil(M/P).
	Speedup float64 `json:"speedup"`
	// Resizes counts applied grant changes.
	Resizes int `json:"resizes"`
	// Cause explains a terminal failure state ("none" while in flight
	// or after success): error, panic, timeout, canceled-queued or
	// canceled-running.
	Cause Cause `json:"cause,omitempty"`
	// SyncEvents counts the fork-join regions the job's team has run.
	SyncEvents uint64 `json:"sync_events"`
	// WaitSec and RunSec are queue wait and execution time in seconds.
	WaitSec float64 `json:"wait_sec"`
	RunSec  float64 `json:"run_sec"`
	Err     string  `json:"error,omitempty"`
}

// record is the scheduler's internal per-job bookkeeping. All mutable
// fields are guarded by Scheduler.mu except where noted.
type record struct {
	id  uint64
	job Job

	state     State
	cause     Cause
	requested int
	granted   int // applied grant (0 while queued)
	target    int // grant after a requested shrink; == granted when none is pending
	resizes   int
	timeout   time.Duration // run deadline; 0 means none
	deadline  time.Time     // started + timeout, restarted when a parked job resumes
	// wake is set while the job is parked (granted 0, still running);
	// dispatch closes it with the fresh grant.
	wake chan struct{}

	ctx    context.Context
	cancel context.CancelCauseFunc
	done   chan struct{} // closed when the job reaches a terminal state

	team *parloop.Team // set once running; teams are created per grant

	submitted  time.Time
	started    time.Time
	finished   time.Time
	syncEvents uint64 // captured from the team at completion
	err        error
}

// snapshotLocked builds a JobStatus; caller holds Scheduler.mu.
func (r *record) snapshotLocked(now time.Time) JobStatus {
	st := JobStatus{
		ID:        r.id,
		Name:      r.job.Name(),
		State:     r.state,
		Cause:     r.cause,
		Requested: r.requested,
		Granted:   r.granted,
		Resizes:   r.resizes,
	}
	if r.granted >= 1 {
		st.Speedup = model.StairStepSpeedup(r.requested, r.granted)
	}
	switch {
	case r.state == StateQueued:
		st.WaitSec = now.Sub(r.submitted).Seconds()
	case r.started.IsZero():
		// canceled while queued
		st.WaitSec = r.finished.Sub(r.submitted).Seconds()
	default:
		st.WaitSec = r.started.Sub(r.submitted).Seconds()
		end := r.finished
		if r.state == StateRunning {
			end = now
		}
		st.RunSec = end.Sub(r.started).Seconds()
	}
	if r.state == StateRunning && r.team != nil {
		st.SyncEvents = r.team.SyncEvents()
	} else {
		st.SyncEvents = r.syncEvents
	}
	if r.err != nil {
		st.Err = r.err.Error()
	}
	return st
}
