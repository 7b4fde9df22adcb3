package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/simclock"
)

// DefaultHeartbeatTTL is how long a worker stays live after its last
// heartbeat (or successful RPC) before the coordinator stops routing
// to it.
const DefaultHeartbeatTTL = 5 * time.Second

// Config parameterizes a Coordinator.
type Config struct {
	// Clock drives heartbeat expiry and trace timestamps. nil defaults
	// to the wall clock; tests inject a simclock.Virtual.
	Clock simclock.Clock
	// Tracer receives heartbeat / shard-step / step-RPC / exchange /
	// failover events. nil disables tracing (obs tracers are
	// nil-safe).
	Tracer *obs.Tracer
	// Node tags the coordinator's own events in merged fleet
	// timelines (default "coord"), distinguishing them from
	// worker-side spans.
	Node string
	// Metrics is the registry for the coordinator's counters and
	// gauges. nil creates a private registry.
	Metrics *obs.Registry
	// HeartbeatTTL overrides DefaultHeartbeatTTL when > 0.
	HeartbeatTTL time.Duration
}

// workerState is the coordinator's record of one registered worker.
type workerState struct {
	id       string
	client   WorkerClient
	lastSeen time.Time
	lost     bool
}

// Coordinator tracks worker membership and plans sharded solves: zone
// groups go to workers in the job key's rendezvous-hash order (rank), so
// a solve's placement is stable as workers join and leave.
type Coordinator struct {
	cfg      Config
	clock    simclock.Clock
	solveSeq atomic.Uint64 // assigns per-solve trace ids

	mu      sync.Mutex
	workers map[string]*workerState

	ctrHeartbeats *obs.Counter
	ctrSteps      *obs.Counter
	ctrPlanes     *obs.Counter
	ctrFailovers  *obs.Counter
	ctrSolves     *obs.Counter
}

// New creates a coordinator with no workers.
func New(cfg Config) *Coordinator {
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.HeartbeatTTL <= 0 {
		cfg.HeartbeatTTL = DefaultHeartbeatTTL
	}
	if cfg.Node == "" {
		cfg.Node = "coord"
	}
	c := &Coordinator{
		cfg:     cfg,
		clock:   cfg.Clock,
		workers: make(map[string]*workerState),

		ctrHeartbeats: cfg.Metrics.Counter("cluster_heartbeats_total", "Worker heartbeats received."),
		ctrSteps:      cfg.Metrics.Counter("cluster_shard_steps_total", "Lockstep shard time steps completed across all solves."),
		ctrPlanes:     cfg.Metrics.Counter("cluster_planes_exchanged_total", "Boundary planes routed between shards."),
		ctrFailovers:  cfg.Metrics.Counter("cluster_failovers_total", "Re-shards after a worker loss."),
		ctrSolves:     cfg.Metrics.Counter("cluster_solves_total", "Sharded solves completed."),
	}
	cfg.Metrics.GaugeFunc("cluster_workers_live", "Workers currently live (heartbeat within TTL).", func() float64 {
		return float64(len(c.Live()))
	})
	return c
}

// Metrics returns the coordinator's registry.
func (c *Coordinator) Metrics() *obs.Registry { return c.cfg.Metrics }

// Tracer returns the coordinator's tracer (nil when tracing is off).
func (c *Coordinator) Tracer() *obs.Tracer { return c.cfg.Tracer }

// Node returns the coordinator's node tag.
func (c *Coordinator) Node() string { return c.cfg.Node }

// Register adds a worker under the given id. Re-registering a live id
// is an error; re-registering a lost id replaces its client (the
// restarted-daemon case) and revives it.
func (c *Coordinator) Register(id string, client WorkerClient) error {
	if id == "" || client == nil {
		return fmt.Errorf("cluster: Register needs an id and a client")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.workers[id]; ok && !w.lost {
		return fmt.Errorf("cluster: worker %q already registered", id)
	}
	c.workers[id] = &workerState{id: id, client: client, lastSeen: c.clock.Now()}
	return nil
}

// Heartbeat records a sign of life from a worker. Heartbeating a lost
// worker revives it. Unknown ids are an error — workers must register
// first.
func (c *Coordinator) Heartbeat(id string) error {
	c.mu.Lock()
	w, ok := c.workers[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("cluster: heartbeat from unregistered worker %q", id)
	}
	revived := w.lost
	w.lost = false
	w.lastSeen = c.clock.Now()
	c.mu.Unlock()
	c.ctrHeartbeats.Inc()
	if c.cfg.Tracer.Enabled() {
		a := int64(0)
		if revived {
			a = 1
		}
		c.cfg.Tracer.Emit(obs.Event{Kind: obs.KindHeartbeat, Name: id, Worker: -1,
			Node: c.cfg.Node, A: a})
	}
	return nil
}

// MarkLost declares a worker dead (failed RPC, missed heartbeats). It
// stays registered so a later heartbeat can revive it, but leaves the
// live set immediately.
func (c *Coordinator) MarkLost(id string) {
	c.mu.Lock()
	if w, ok := c.workers[id]; ok {
		w.lost = true
	}
	c.mu.Unlock()
}

// liveLocked reports whether w counts as live at now.
func (c *Coordinator) liveLocked(w *workerState, now time.Time) bool {
	return !w.lost && now.Sub(w.lastSeen) <= c.cfg.HeartbeatTTL
}

// Live returns the ids of live workers, sorted.
func (c *Coordinator) Live() []string {
	now := c.clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.workers))
	for id, w := range c.workers {
		if c.liveLocked(w, now) {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// client returns the live worker's client.
func (c *Coordinator) client(id string) (WorkerClient, error) {
	now := c.clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[id]
	if !ok || !c.liveLocked(w, now) {
		return nil, fmt.Errorf("cluster: worker %q not live", id)
	}
	return w.client, nil
}

// rank returns the key's preference order over live workers by
// rendezvous hashing: workers sorted by descending weight(key, worker),
// ties by id. A worker's weight does not depend on who else is live, so
// losing one moves only the keys it led and keeps every survivor's place
// relative to the others.
func (c *Coordinator) rank(key string) []string {
	ids := c.Live()
	slices.SortStableFunc(ids, func(a, b string) int { return cmp.Compare(weight(key, b), weight(key, a)) })
	return ids
}

// weight is the rendezvous score of worker id for key: FNV-1a over key,
// a zero byte and id, then the splitmix64 finalizer, so keys that differ
// only in their last byte still score independently. It is stable across
// processes and platforms, so a restarted coordinator places alike.
func weight(key, id string) uint64 {
	h := uint64(14695981039346656037)
	for _, s := range [3]string{key, "\x00", id} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
	}
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}
