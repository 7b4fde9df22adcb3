package cluster

import (
	"sync"
	"time"

	"repro/internal/obs"
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
	id    string
	host  *Host
	clock simclock.Clock

	mu     sync.Mutex
	down   bool
	delay  time.Duration
	tracer *obs.Tracer
}

// NewLocalWorker creates an in-process worker with an empty shard
// host. clock gates injected slow links; nil defaults to the wall
// clock.
func NewLocalWorker(id string, clock simclock.Clock) *LocalWorker {
	if clock == nil {
		clock = simclock.Real{}
	}
	return &LocalWorker{id: id, host: NewHost(), clock: clock}
}

// ID returns the worker's id.
func (w *LocalWorker) ID() string { return w.id }

// Host exposes the underlying shard host (tests inspect shard
// counts; Close releases everything).
func (w *LocalWorker) Host() *Host { return w.host }

// EnableTrace attaches an enabled tracer of the given ring capacity
// to the worker's shard host, timestamped by the worker's clock, and
// returns it. The worker then serves the TraceSource interface, so a
// Collector can pull its events like a remote daemon's.
func (w *LocalWorker) EnableTrace(capacity int) *obs.Tracer {
	tr := obs.NewTracer(capacity, w.clock)
	tr.Enable()
	w.mu.Lock()
	w.tracer = tr
	w.mu.Unlock()
	w.host.SetObs(w.id, tr)
	return tr
}

// Tracer returns the worker's tracer (nil until EnableTrace).
func (w *LocalWorker) Tracer() *obs.Tracer {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.tracer
}

// FetchTrace implements TraceSource over the in-process transport:
// the worker's ring events with Seq >= since, subject to the same
// injected faults as every other call — a failed node refuses, like
// an unreachable daemon mid-pull.
func (w *LocalWorker) FetchTrace(since uint64) ([]obs.Event, uint64, uint64, error) {
	if err := w.gate(); err != nil {
		return nil, since, 0, err
	}
	w.mu.Lock()
	tr := w.tracer
	w.mu.Unlock()
	events, dropped := tr.EventsSince(since)
	return events, obs.NextCursor(events, since), dropped, nil
}

// ClockProbe implements TraceSource: the worker's current clock with
// zero round-trip (in-process), still subject to injected faults.
// Under a shared simclock.Virtual the collector's offset estimate for
// this worker is therefore exactly zero.
func (w *LocalWorker) ClockProbe() (time.Time, time.Duration, error) {
	if err := w.gate(); err != nil {
		return time.Time{}, 0, err
	}
	return w.clock.Now(), 0, nil
}

// Fail injects node loss: every call from now on returns
// ErrWorkerDown.
func (w *LocalWorker) Fail() {
	w.mu.Lock()
	w.down = true
	w.mu.Unlock()
}

// Recover clears an injected failure. The worker's shards are gone
// (its host is cleared, as a restarted daemon's would be).
func (w *LocalWorker) Recover() {
	w.mu.Lock()
	w.down = false
	w.mu.Unlock()
	w.host.Close()
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
		w.clock.Sleep(delay)
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

// Ping implements WorkerClient.
func (w *LocalWorker) Ping() error { return w.gate() }

// CreateShard implements WorkerClient.
func (w *LocalWorker) CreateShard(req CreateShardRequest) (CreateShardResponse, error) {
	if err := w.gate(); err != nil {
		return CreateShardResponse{}, err
	}
	return w.host.Create(req)
}

// StepShard implements WorkerClient.
func (w *LocalWorker) StepShard(req StepRequest) (StepResponse, error) {
	if err := w.gate(); err != nil {
		return StepResponse{}, err
	}
	return w.host.Step(req)
}

// ReleaseShard implements WorkerClient.
func (w *LocalWorker) ReleaseShard(req ReleaseRequest) error {
	if err := w.gate(); err != nil {
		return err
	}
	return w.host.Release(req)
}
