package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Tracer receives shard-step / step-RPC / exchange / failover
	// events and stamps them with its own clock. nil disables tracing
	// (obs tracers are nil-safe).
	Tracer *obs.Tracer
	// Metrics is the registry for the coordinator's counters and
	// gauges. nil creates a private registry.
	Metrics *obs.Registry
}

// Coordinator tracks worker membership and plans sharded solves: zone
// groups go to workers in the job key's rendezvous-hash order (rank), so
// a solve's placement is stable as workers join and leave.
type Coordinator struct {
	cfg      Config
	solveSeq atomic.Uint64 // assigns per-solve trace ids

	mu      sync.Mutex
	workers map[string]WorkerClient // the live workers' clients, by id

	ctrSteps     *obs.Counter
	ctrPlanes    *obs.Counter
	ctrFailovers *obs.Counter
	ctrSolves    *obs.Counter
}

// New creates a coordinator with no workers.
func New(cfg Config) *Coordinator {
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	c := &Coordinator{
		cfg:     cfg,
		workers: make(map[string]WorkerClient),

		ctrSteps:     cfg.Metrics.Counter("cluster_shard_steps_total", "Lockstep shard time steps completed across all solves."),
		ctrPlanes:    cfg.Metrics.Counter("cluster_planes_exchanged_total", "Boundary planes routed between shards."),
		ctrFailovers: cfg.Metrics.Counter("cluster_failovers_total", "Re-shards after a worker loss."),
		ctrSolves:    cfg.Metrics.Counter("cluster_solves_total", "Sharded solves completed."),
	}
	cfg.Metrics.GaugeFunc("cluster_workers_live", "Registered workers none of whose RPCs has answered worker-down since they registered.", func() float64 {
		return float64(len(c.Live()))
	})
	return c
}

// Metrics returns the coordinator's registry.
func (c *Coordinator) Metrics() *obs.Registry { return c.cfg.Metrics }

// Tracer returns the coordinator's tracer (nil when tracing is off).
func (c *Coordinator) Tracer() *obs.Tracer { return c.cfg.Tracer }

// Register adds a live worker under the given id. It stays live until
// one of its RPCs answers ErrWorkerDown (MarkLost). Registering a live
// id again is an error; registering a lost id (the restarted-daemon
// case) revives it with the new client.
func (c *Coordinator) Register(id string, client WorkerClient) error {
	if id == "" || client == nil {
		return fmt.Errorf("cluster: Register needs an id and a client")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.workers[id]; ok {
		return fmt.Errorf("cluster: worker %q already registered", id)
	}
	c.workers[id] = client
	return nil
}

// MarkLost declares a worker dead: one of its RPCs answered
// ErrWorkerDown. It leaves the live set at once and stays out of it
// until it registers again.
func (c *Coordinator) MarkLost(id string) {
	c.mu.Lock()
	delete(c.workers, id)
	c.mu.Unlock()
}

// Live returns the ids of live workers, sorted.
func (c *Coordinator) Live() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.workers))
	for id := range c.workers {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// client returns the live worker's client. A worker lost since the
// caller ranked it answers ErrWorkerDown, as its next RPC would.
func (c *Coordinator) client(id string) (WorkerClient, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.workers[id]; ok {
		return w, nil
	}
	return nil, fmt.Errorf("%w: %q is not live", ErrWorkerDown, id)
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
