package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/f3d"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// ClusterSoakConfig parameterizes a deterministic soak of the
// sharded-solve engine: a seeded sequence of solves routed through one
// coordinator while workers die, links slow down and lost workers
// rejoin between jobs (rebalancing). Everything runs on a virtual
// clock, so injected latencies resolve in microseconds of real time
// and the whole run is reproducible from the seed.
type ClusterSoakConfig struct {
	// Seed drives every random choice.
	Seed int64
	// Workers is the daemon count (default 3).
	Workers int
	// Jobs is the number of sharded solves (default 4).
	Jobs int
	// Steps per solve (default 6).
	Steps int
	// NodeLoss and SlowLink are per-job fault probabilities
	// (defaults 0.5 and 0.5; a job can suffer both).
	NodeLoss, SlowLink float64
	// Trace turns fleet tracing on: every worker and the coordinator
	// record spans, and after the last job, every lost worker revived,
	// each ring is read once into the fleet timeline. A worker's ring
	// outlives its Recover, so the read covers every job. The merged
	// timeline and its cluster report land in the result.
	Trace bool
	// TraceBuf is each trace ring's capacity (default 8192).
	TraceBuf int
}

func (c ClusterSoakConfig) withDefaults() ClusterSoakConfig {
	if c.Workers <= 0 {
		c.Workers = 3
	}
	if c.Jobs <= 0 {
		c.Jobs = 4
	}
	if c.Steps <= 0 {
		c.Steps = 6
	}
	if c.NodeLoss == 0 {
		c.NodeLoss = 0.5
	}
	if c.SlowLink == 0 {
		c.SlowLink = 0.5
	}
	if c.TraceBuf <= 0 {
		c.TraceBuf = 8192
	}
	return c
}

// ClusterSoakResult reports what the soak did and saw.
type ClusterSoakResult struct {
	// Jobs is the number of solves completed (all of them, or the
	// soak errored).
	Jobs int
	// Losses and SlowLinks count the faults that actually fired.
	Losses, SlowLinks int
	// Failovers sums the engine's re-shards across all jobs.
	Failovers int
	// Histories holds each job's residual history, keyed by job name —
	// the determinism witness a caller can compare across runs.
	Histories map[string][]cluster.StepStat
	// Timeline is the merged node-tagged fleet timeline (Trace only).
	Timeline []obs.Event
	// TraceReport is the cluster critical-path report over Timeline.
	TraceReport *analyze.ClusterReport
	// Dropped is each ring's Dropped() at the read, keyed by node: the
	// events wraparound lost before the timeline was read (Trace only).
	Dropped map[string]uint64
}

// chaosWorker wraps an in-process worker with a scripted node loss: on
// its armed lockstep call the worker fails permanently (until revived
// between jobs). Scripting by call count keeps the injection
// deterministic — no goroutine timing decides when the node dies.
type chaosWorker struct {
	*cluster.LocalWorker

	mu     sync.Mutex
	failAt int // fail on the n-th StepShard call of this job; 0 = never
	calls  int
	fired  bool
}

// arm programs the next job's fault plan (failAt = 0 disarms).
func (w *chaosWorker) arm(failAt int) {
	w.mu.Lock()
	w.failAt = failAt
	w.calls = 0
	w.fired = false
	w.mu.Unlock()
}

// lossFired reports whether the armed loss actually hit.
func (w *chaosWorker) lossFired() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fired
}

func (w *chaosWorker) StepShard(req cluster.StepRequest) (cluster.StepResponse, error) {
	w.mu.Lock()
	w.calls++
	fire := w.failAt > 0 && w.calls >= w.failAt && !w.fired
	if fire {
		w.fired = true
	}
	w.mu.Unlock()
	if fire {
		w.LocalWorker.Fail()
	}
	return w.LocalWorker.StepShard(req)
}

// ClusterSoak runs the configured workload and checks the engine's
// safety obligations on every job:
//
//   - conformance under faults: each solve's residual history is
//     bitwise the single-node history, losses and slow links
//     notwithstanding;
//   - termination: every solve reaches a terminal result (the virtual
//     clock is advanced only when the workload is stuck);
//   - failover accounting: every fired node loss produces a failover
//     and evicts the worker from the live set;
//   - rebalancing: revived workers rejoin before the next job and the
//     planner uses them again;
//   - no shard leaks: after each job every reachable host is empty;
//   - one trace read (Trace): the fleet timeline read once after the
//     last job is node-tagged and duplicate-free, and its cross-node
//     attribution closes for every job.
func ClusterSoak(cfg ClusterSoakConfig) (*ClusterSoakResult, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	clk := simclock.NewVirtual(time.Unix(0, 0))
	var tracer *obs.Tracer
	if cfg.Trace {
		tracer = obs.NewTracer(cfg.TraceBuf, clk)
		tracer.Enable()
	}
	coord := cluster.New(cluster.Config{Tracer: tracer})

	workers := make([]*chaosWorker, cfg.Workers)
	for i := range workers {
		id := fmt.Sprintf("w%02d", i)
		wcfg := sched.Config{Clock: clk}
		if cfg.Trace {
			wcfg.Tracer = obs.NewTracer(cfg.TraceBuf, clk)
			wcfg.Tracer.Enable()
		}
		workers[i] = &chaosWorker{LocalWorker: cluster.NewLocalWorker(id, wcfg)}
		if err := coord.Register(id, workers[i]); err != nil {
			return nil, err
		}
	}

	// One canonical 3-zone case; the reference history is computed once
	// on a single node.
	c, ifaces := f3d.StackAlongJ("soak", 20, 6, 5, []int{6, 12})
	solveCfg := f3d.DefaultConfig(c)
	solveCfg.Interfaces = ifaces
	const pulse = 0.02
	ref, err := singleNodeHistory(solveCfg, pulse, cfg.Steps)
	if err != nil {
		return nil, err
	}

	res := &ClusterSoakResult{Histories: make(map[string][]cluster.StepStat)}
	for j := 0; j < cfg.Jobs; j++ {
		// Deal this job's faults from the seeded stream.
		lossIdx, slowIdx := -1, -1
		failCall, delay := 0, time.Duration(0)
		if rng.Float64() < cfg.NodeLoss {
			lossIdx = rng.Intn(cfg.Workers)
			failCall = 1 + rng.Intn(cfg.Steps)
		}
		if rng.Float64() < cfg.SlowLink {
			slowIdx = rng.Intn(cfg.Workers)
			delay = time.Duration(50+rng.Intn(200)) * time.Millisecond
		}
		for i, w := range workers {
			if i == lossIdx {
				w.arm(failCall)
			} else {
				w.arm(0)
			}
			if i == slowIdx {
				w.SetDelay(delay)
			} else {
				w.SetDelay(0)
			}
		}

		job := fmt.Sprintf("soak-job-%02d", j)
		out, err := runSolveAdvancing(coord, clk, cluster.SolveSpec{
			Job: job, Config: solveCfg, PulseAmp: pulse, Steps: cfg.Steps,
		})
		if err != nil {
			return nil, fmt.Errorf("chaos: job %s: %w", job, err)
		}
		res.Jobs++
		res.Histories[job] = out.History
		res.Failovers += out.Failovers

		if err := compareHistories(job, out.History, ref); err != nil {
			return nil, err
		}
		fired := lossIdx >= 0 && workers[lossIdx].lossFired()
		if fired {
			res.Losses++
			if out.Failovers < 1 {
				return nil, fmt.Errorf("chaos: job %s lost %s but the engine recorded no failover", job, workers[lossIdx].ID())
			}
			for _, id := range coord.Live() {
				if id == workers[lossIdx].ID() {
					return nil, fmt.Errorf("chaos: job %s: lost worker %s still live", job, id)
				}
			}
		}
		if slowIdx >= 0 {
			res.SlowLinks++
		}
		// No shard leaks on any reachable host.
		for i, w := range workers {
			if i == lossIdx && fired {
				continue
			}
			if n := w.Host().ShardCount(); n != 0 {
				return nil, fmt.Errorf("chaos: job %s leaked %d shards on %s", job, n, w.ID())
			}
		}
		// Rebalance: revive the lost worker so the next job can plan
		// over the full fleet again.
		if fired {
			workers[lossIdx].Recover()
			if err := coord.Register(workers[lossIdx].ID(), workers[lossIdx]); err != nil {
				return nil, fmt.Errorf("chaos: revive %s: %w", workers[lossIdx].ID(), err)
			}
		}
		if got := len(coord.Live()); got != cfg.Workers {
			return nil, fmt.Errorf("chaos: after job %s only %d/%d workers live", job, got, cfg.Workers)
		}
	}

	// The merged timeline must be coherent after all that: every event
	// node-tagged, no (node, seq) duplicated, and the cross-node
	// attribution identity closed for every job.
	if cfg.Trace {
		sources := make(map[string]cluster.TraceSource, len(workers))
		res.Dropped = map[string]uint64{obs.CoordNode: tracer.Dropped()}
		for _, w := range workers {
			// A virtual-clock link delay would park the read on an
			// unadvanced clock.
			w.SetDelay(0)
			sources[w.ID()] = w.LocalWorker
			res.Dropped[w.ID()] = w.Tracer().Dropped()
		}
		tl, err := cluster.ReadTimeline(tracer, sources)
		if err != nil {
			return nil, fmt.Errorf("chaos: %w", err)
		}
		// Seq is unique per emitting ring, and each ring must surface
		// exactly once. step_rpc spans are coordinator-emitted but
		// carry the worker lane's node tag, so origin — not the tag —
		// identifies the ring.
		type key struct {
			coordRing bool
			node      string
			seq       uint64
		}
		seen := make(map[key]bool, len(tl))
		for _, e := range tl {
			if e.Node == "" {
				return nil, fmt.Errorf("chaos: merged timeline holds an untagged %v event", e.Kind)
			}
			if e.Kind == obs.KindTraceDropped {
				continue
			}
			k := key{e.Node == obs.CoordNode || e.Kind == obs.KindStepRPC, e.Node, e.Seq}
			if seen[k] {
				return nil, fmt.Errorf("chaos: duplicate event (%s, %v, seq %d) in merged timeline", e.Node, e.Kind, e.Seq)
			}
			seen[k] = true
		}
		rep := analyze.ClusterAnalyze(tl)
		if err := analyze.CheckClusterClosure(rep); err != nil {
			return nil, fmt.Errorf("chaos: cluster attribution: %w", err)
		}
		if len(rep.Solves) != res.Jobs {
			return nil, fmt.Errorf("chaos: trace report covers %d solves, want %d", len(rep.Solves), res.Jobs)
		}
		res.Timeline = tl
		res.TraceReport = rep
	}
	return res, nil
}

// runSolveAdvancing runs a solve in a goroutine while advancing the
// virtual clock whenever the workload is stuck on injected latency —
// the cluster version of the soak driver's advance-if-stuck loop.
func runSolveAdvancing(coord *cluster.Coordinator, clk *simclock.Virtual, spec cluster.SolveSpec) (cluster.SolveResult, error) {
	type out struct {
		res cluster.SolveResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := coord.Solve(spec)
		done <- out{res, err}
	}()
	deadline := time.After(60 * time.Second)
	for {
		select {
		case o := <-done:
			return o.res, o.err
		case <-deadline:
			return cluster.SolveResult{}, fmt.Errorf("chaos: solve %s did not terminate", spec.Job)
		default:
			if !clk.AdvanceToNext() {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}
}

// singleNodeHistory computes the serial reference for the soak case.
func singleNodeHistory(cfg f3d.Config, pulse float64, steps int) ([]cluster.StepStat, error) {
	s, err := f3d.NewCacheSolver(cfg, f3d.CacheOptions{})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	f3d.InitPulse(s, pulse)
	hist := make([]cluster.StepStat, steps)
	for i := range hist {
		st := s.Step()
		hist[i] = cluster.StepStat{Residual: st.Residual, MaxDelta: st.MaxDelta, Flops: st.Flops}
	}
	return hist, nil
}

// compareHistories demands bitwise agreement with the reference.
func compareHistories(job string, got, want []cluster.StepStat) error {
	if len(got) != len(want) {
		return fmt.Errorf("chaos: job %s history has %d steps, want %d", job, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i].Residual) != math.Float64bits(want[i].Residual) ||
			math.Float64bits(got[i].MaxDelta) != math.Float64bits(want[i].MaxDelta) {
			return fmt.Errorf("chaos: job %s diverged at step %d: (%v, %v) vs (%v, %v)",
				job, i, got[i].Residual, got[i].MaxDelta, want[i].Residual, want[i].MaxDelta)
		}
	}
	return nil
}
