package cluster

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/simclock"
)

// TraceSource is the pull side of distributed tracing: anything a
// collector can drain events and clock readings from. Both worker
// transports implement it — LocalWorker in-process, HTTPClient over
// the daemon's GET /trace cursor API — so the coordinator assembles
// the same fleet timeline in tests and in production.
type TraceSource interface {
	// FetchTrace returns the source's events with Seq >= since, the
	// cursor to resume from, and how many events the source's ring
	// dropped before this window (also present in-band as a
	// trace_dropped marker event).
	FetchTrace(since uint64) ([]obs.Event, uint64, uint64, error)
	// ClockProbe returns the source's current clock reading and the
	// locally observed round-trip time of the probe.
	ClockProbe() (remote time.Time, rtt time.Duration, err error)
}

// CollectorConfig parameterizes a Collector.
type CollectorConfig struct {
	// Clock is the coordinator-side reference clock offsets are
	// estimated against. nil defaults to the wall clock; under a
	// shared simclock.Virtual every estimated offset is exactly zero,
	// keeping merged timelines deterministic in tests.
	Clock simclock.Clock
	// Coord, when non-nil, plays two roles: it receives the
	// collector's own collect / clock_sync events, and its ring — the
	// coordinator's solve spans — is merged into Timeline.
	Coord *obs.Tracer
}

// WorkerTraceStat is one worker's collection state.
type WorkerTraceStat struct {
	Worker  string        `json:"worker"`
	Cursor  uint64        `json:"cursor"`
	Events  int           `json:"events"`
	Dropped uint64        `json:"dropped"`
	Errors  int           `json:"errors"`
	LastErr string        `json:"last_err,omitempty"`
	Synced  bool          `json:"synced"`
	Offset  time.Duration `json:"offset_ns"`
	RTT     time.Duration `json:"rtt_ns"`
}

// collectorWorker is the collector's per-worker state. fetchMu
// serializes pulls against the same source (so concurrent Pull calls
// cannot replay a cursor and duplicate events); mu guards the state
// and is never held across a network call, so Stats and Timeline stay
// responsive while a slow worker is mid-fetch.
type collectorWorker struct {
	id  string
	src TraceSource

	fetchMu sync.Mutex

	mu      sync.Mutex
	cursor  uint64
	synced  bool
	offset  time.Duration
	rtt     time.Duration
	events  []obs.Event
	dropped uint64
	errors  int
	lastErr string
}

// Collector incrementally drains every worker's trace ring into one
// node-tagged fleet timeline on the coordinator's clock. Worker
// clocks are aligned by the offset estimated from a clock probe's RTT
// midpoint: offset = remote - (local + rtt/2), subtracted from each
// event timestamp. Per-worker fetch failures (a lost node mid-pull)
// are recorded and skipped — the cursor survives, so collection
// resumes where it left off when the node revives.
type Collector struct {
	cfg CollectorConfig

	mu      sync.Mutex
	workers []*collectorWorker
	byID    map[string]*collectorWorker
}

// NewCollector creates an empty collector.
func NewCollector(cfg CollectorConfig) *Collector {
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	return &Collector{cfg: cfg, byID: make(map[string]*collectorWorker)}
}

// AddWorker registers a worker's trace source under the ID the
// coordinator registered the worker under; every event pulled from it
// is tagged with that ID. Adding an id again rebinds its source (the
// restarted-daemon case) but keeps the cursor and collected events.
func (c *Collector) AddWorker(id string, src TraceSource) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.byID[id]; ok {
		w.mu.Lock()
		w.src = src
		w.mu.Unlock()
		return
	}
	w := &collectorWorker{id: id, src: src}
	c.byID[id] = w
	c.workers = append(c.workers, w)
}

// snapshot returns the worker list under the collector lock.
func (c *Collector) snapshot() []*collectorWorker {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*collectorWorker(nil), c.workers...)
}

// SyncClocks probes every worker's clock concurrently and stores the
// RTT-midpoint offset estimates used to align subsequent pulls. It
// returns how many workers answered; failures leave the worker's
// previous estimate (or none) in place. Each successful probe emits a
// clock_sync event into the Coord tracer (A = offset ns, B = rtt ns).
func (c *Collector) SyncClocks() int {
	var wg sync.WaitGroup
	var n atomic.Int64
	for _, w := range c.snapshot() {
		wg.Add(1)
		go func(w *collectorWorker) {
			defer wg.Done()
			w.fetchMu.Lock()
			defer w.fetchMu.Unlock()
			w.mu.Lock()
			src := w.src
			w.mu.Unlock()
			local0 := c.cfg.Clock.Now()
			remote, rtt, err := src.ClockProbe()
			w.mu.Lock()
			if err != nil {
				w.errors++
				w.lastErr = err.Error()
				w.mu.Unlock()
				return
			}
			w.offset = remote.Sub(local0.Add(rtt / 2))
			w.rtt = rtt
			w.synced = true
			offset := w.offset
			w.mu.Unlock()
			n.Add(1)
			if c.cfg.Coord.Enabled() {
				c.cfg.Coord.Emit(obs.Event{Kind: obs.KindClockSync, Name: w.id, Worker: -1,
					Node: obs.CoordNode, A: int64(offset), B: int64(rtt)})
			}
		}(w)
	}
	wg.Wait()
	return int(n.Load())
}

// Pull drains every worker concurrently from its cursor, aligning and
// node-tagging the fetched events. It returns the number of events
// added across all workers. A worker whose fetch fails contributes
// nothing this round but keeps its cursor; in-band trace_dropped
// markers pass through node-tagged, so the merged timeline is
// self-describing about per-worker truncation. Each worker's pull
// emits a collect event into the Coord tracer (A = events, B =
// dropped).
func (c *Collector) Pull() int {
	var wg sync.WaitGroup
	var added atomic.Int64
	for _, w := range c.snapshot() {
		wg.Add(1)
		go func(w *collectorWorker) {
			defer wg.Done()
			added.Add(int64(c.pullWorker(w)))
		}(w)
	}
	wg.Wait()
	return int(added.Load())
}

func (c *Collector) pullWorker(w *collectorWorker) int {
	w.fetchMu.Lock()
	defer w.fetchMu.Unlock()
	w.mu.Lock()
	src, since := w.src, w.cursor
	synced, offset := w.synced, w.offset
	w.mu.Unlock()

	t0 := c.cfg.Clock.Now()
	events, next, dropped, err := src.FetchTrace(since)
	pull := c.cfg.Clock.Now().Sub(t0)
	if err != nil {
		w.mu.Lock()
		w.errors++
		w.lastErr = err.Error()
		w.mu.Unlock()
		return 0
	}
	for i := range events {
		events[i].Node = w.id
		if synced && offset != 0 {
			events[i].At = events[i].At.Add(-offset)
		}
	}
	w.mu.Lock()
	w.cursor = next
	w.dropped += dropped
	w.events = append(w.events, events...)
	w.lastErr = ""
	w.mu.Unlock()
	if c.cfg.Coord.Enabled() {
		c.cfg.Coord.Emit(obs.Event{Kind: obs.KindCollect, Name: w.id, Worker: -1,
			Node: obs.CoordNode, Dur: pull, A: int64(len(events)), B: int64(dropped)})
	}
	return len(events)
}

// Stats returns per-worker collection state, sorted by worker id.
func (c *Collector) Stats() []WorkerTraceStat {
	ws := c.snapshot()
	out := make([]WorkerTraceStat, 0, len(ws))
	for _, w := range ws {
		w.mu.Lock()
		out = append(out, WorkerTraceStat{
			Worker: w.id, Cursor: w.cursor, Events: len(w.events),
			Dropped: w.dropped, Errors: w.errors, LastErr: w.lastErr,
			Synced: w.synced, Offset: w.offset, RTT: w.rtt,
		})
		w.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Worker < out[j].Worker })
	return out
}

// Timeline returns the merged fleet timeline: every collected worker
// event plus the Coord tracer's current ring, sorted by aligned
// timestamp (ties broken by node then sequence, so the order is
// deterministic under a virtual clock where many events share an
// instant).
func (c *Collector) Timeline() []obs.Event {
	var out []obs.Event
	for _, w := range c.snapshot() {
		w.mu.Lock()
		out = append(out, w.events...)
		w.mu.Unlock()
	}
	if c.cfg.Coord != nil {
		out = append(out, c.cfg.Coord.Events()...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if !a.At.Equal(b.At) {
			return a.At.Before(b.At)
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Seq < b.Seq
	})
	return out
}
