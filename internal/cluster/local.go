package cluster

import (
	"context"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// LocalWorker is the in-process transport: a WorkerClient wrapping its
// own Host directly, with injectable faults. It carries the same
// messages as the HTTP transport — planes and snapshots cross it as
// the encoded bytes the HTTP frame ships as blobs — so deterministic
// tests exercise the payload encodings without sockets.
//
// Fault injection models the two cluster failure modes the chaos soak
// drives: Fail makes every subsequent call return ErrWorkerDown (node
// loss) until Recover; SetDelay makes every call sleep on the worker's
// clock first (a slow link), which under a simclock.Virtual blocks
// until the test advances time.
type LocalWorker struct {
	id  string
	cfg sched.Config

	mu    sync.Mutex
	host  *Host
	down  bool
	delay time.Duration
}

// NewLocalWorker creates an in-process worker whose shards run as jobs
// of its own scheduler, built from cfg: Procs bounds its concurrent
// shards, DefaultTimeout is the shard deadline, Clock (nil: the wall
// clock) also times slow links, and Tracer (nil: a disabled 4096-event
// ring) takes the shard spans and outlives Recover.
func NewLocalWorker(id string, cfg sched.Config) *LocalWorker {
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	if cfg.Tracer == nil {
		cfg.Tracer = obs.NewTracer(4096, cfg.Clock)
	}
	return &LocalWorker{id: id, cfg: cfg, host: NewHost(sched.New(cfg))}
}

// ID returns the worker's id.
func (w *LocalWorker) ID() string { return w.id }

// Host exposes the underlying shard host (tests inspect shard counts).
func (w *LocalWorker) Host() *Host {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.host
}

// Tracer returns the worker's tracer, which ReadTimeline reads.
func (w *LocalWorker) Tracer() *obs.Tracer { return w.cfg.Tracer }

// FetchTrace implements TraceSource over the in-process transport: the
// worker's whole ring, subject to the same injected faults as every
// other call — a failed node refuses, like an unreachable daemon.
func (w *LocalWorker) FetchTrace() ([]obs.Event, error) {
	if err := w.gate(); err != nil {
		return nil, err
	}
	events, _ := w.cfg.Tracer.EventsSince(0)
	return events, nil
}

// Fail injects node loss: every call from now on returns
// ErrWorkerDown.
func (w *LocalWorker) Fail() {
	w.mu.Lock()
	w.down = true
	w.mu.Unlock()
}

// Recover clears an injected failure and restarts the worker as a
// daemon restarts: its scheduler is closed, which ends every shard job,
// and a fresh one with an empty host takes its place.
func (w *LocalWorker) Recover() {
	w.mu.Lock()
	old := w.host
	w.host = NewHost(sched.New(w.cfg))
	w.down = false
	w.mu.Unlock()
	old.sched.Close()
}

// SetDelay injects a slow link: every call first sleeps d on the
// worker's clock. d = 0 removes the delay.
func (w *LocalWorker) SetDelay(d time.Duration) {
	w.mu.Lock()
	w.delay = d
	w.mu.Unlock()
}

// gate applies the injected faults in order: a dead node refuses
// immediately; a slow link delays, then the call proceeds.
func (w *LocalWorker) gate() error {
	w.mu.Lock()
	down, delay := w.down, w.delay
	w.mu.Unlock()
	if down {
		return ErrWorkerDown
	}
	if delay > 0 {
		w.cfg.Clock.Sleep(delay)
		// Loss during the delay still fails the call, like a timeout.
		w.mu.Lock()
		down = w.down
		w.mu.Unlock()
		if down {
			return ErrWorkerDown
		}
	}
	return nil
}

// CreateShard implements WorkerClient. An in-process caller never gives
// up, so the create waits for its grant until the worker restarts.
func (w *LocalWorker) CreateShard(req CreateShardRequest) (CreateShardResponse, error) {
	if err := w.gate(); err != nil {
		return CreateShardResponse{}, err
	}
	return w.Host().Create(context.Background(), req)
}

// StepShard implements WorkerClient.
func (w *LocalWorker) StepShard(req StepRequest) (StepResponse, error) {
	if err := w.gate(); err != nil {
		return StepResponse{}, err
	}
	return w.Host().Step(req)
}

// ReleaseShard implements WorkerClient.
func (w *LocalWorker) ReleaseShard(req ReleaseRequest) error {
	if err := w.gate(); err != nil {
		return err
	}
	return w.Host().Release(req)
}
