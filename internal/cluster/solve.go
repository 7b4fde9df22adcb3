package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/f3d"
	"repro/internal/obs"
	"repro/internal/sched"
)

// SolveSpec describes one sharded multi-zone solve.
type SolveSpec struct {
	// Job is the workload key: rank orders the live workers by a hash of
	// it and the shards go to the first ones, so the same job lands on
	// the same workers while membership is stable.
	Job string
	// Config is the global solve: Case.Zones and Interfaces are the
	// global case (f3d.StackAlongJ produces matched pairs) and the
	// rest the solver parameters. Dt must be set (the shards never
	// re-estimate it — a per-shard CFL estimate would diverge from the
	// single-node solve).
	Config f3d.Config
	// PulseAmp is the initial-condition amplitude (f3d.InitPulse).
	PulseAmp float64
	// Steps is the number of lockstep time steps.
	Steps int
	// CheckpointEvery snapshots all zones every so many steps (the
	// failover rollback point). 0 defaults to 1 — checkpoint every
	// step; < 0 disables checkpoints, so a failover replays from the
	// initial state.
	CheckpointEvery int
}

// maxFailovers bounds the re-shards one solve survives before it gives
// up.
const maxFailovers = 8

// StepStat is one step of the reassembled convergence history,
// bitwise equal to the single-node f3d.StepStats for the same case.
type StepStat struct {
	Residual float64 `json:"residual"`
	MaxDelta float64 `json:"max_delta"`
	Flops    float64 `json:"flops"`
}

// SolveResult is the outcome of a sharded solve.
type SolveResult struct {
	// Trace is the coordinator-assigned solve id stamped on every
	// shard RPC and trace event of this solve — the correlation key
	// for the fleet timeline and the cluster analyzer.
	Trace string `json:"trace,omitempty"`
	// History is the per-step convergence record.
	History []StepStat `json:"history"`
	// Workers is how many workers the plateau plan used.
	Workers int `json:"workers"`
	// Groups lists each shard's global zone range [lo, hi), in shard
	// order.
	Groups [][2]int `json:"groups"`
	// Failovers counts re-shards forced by worker loss.
	Failovers int `json:"failovers"`
}

// checkpoint is the engine's rollback state: the solve had completed
// `step` steps when the snapshots were taken.
type checkpoint struct {
	step  int
	snaps []SnapshotWire
}

// runShard is one shard of an in-flight solve.
type runShard struct {
	worker string
	client WorkerClient
	id     string
	lo, hi int
	inbox  [][]byte
}

// Solve runs the spec across the live workers: plan zone groups with
// the plateau grant rule (sched.PlateauGrant), create one shard per
// granted worker, then advance all shards in lockstep, exchanging
// boundary planes between steps. One rule decides a worker's loss, for
// a create as for a step: an RPC that answers ErrWorkerDown marks the
// worker lost, and the solve re-plans over the survivors from the last
// checkpoint and replays. Any other error a worker answers fails the
// solve and leaves the worker live. The returned history is bitwise the
// single-node history for the same case and config.
func (c *Coordinator) Solve(spec SolveSpec) (SolveResult, error) {
	if spec.Steps < 1 {
		return SolveResult{}, fmt.Errorf("cluster: solve needs Steps >= 1, got %d", spec.Steps)
	}
	// A spec every shard create would refuse fails before any is sent.
	if err := spec.Config.Validate(); err != nil {
		return SolveResult{}, fmt.Errorf("cluster: solve config: %w", err)
	}
	if err := f3d.ValidatePulse(spec.PulseAmp); err != nil {
		return SolveResult{}, err
	}
	if spec.CheckpointEvery == 0 {
		spec.CheckpointEvery = 1
	}

	flops := float64(interiorPoints(spec.Config.Case.Zones)) * f3d.FlopsPerPoint()
	trace := fmt.Sprintf("%s#%d", spec.Job, c.solveSeq.Add(1))
	result := SolveResult{Trace: trace, History: make([]StepStat, spec.Steps)}
	ckpt := checkpoint{step: 0}
	// spare is the checkpoint before ckpt. Nothing can roll back to it
	// any more, so its buffers take the next checkpoint: two sets
	// alternate and a steady-state step allocates no snapshot storage.
	var spare []SnapshotWire
	// shards is the current plan, nil while the next one is to be
	// created. lost lists the workers lost since the last plan was
	// created, lostAt the start of the round that lost the first.
	var shards []*runShard
	var lost []string
	var lostAt time.Time
	s := ckpt.step

	// failover applies the loss rule to a round in which down answered
	// ErrWorkerDown. Nothing on the survivors is worth keeping: the
	// solve rolls back to the checkpoint, and the next round re-plans.
	failover := func(down []string, start time.Time) error {
		c.releaseShards(spec, shards, trace, s)
		shards = nil
		for _, w := range down {
			c.MarkLost(w)
		}
		result.Failovers++
		if result.Failovers > maxFailovers {
			return fmt.Errorf("cluster: solve %q gave up after %d failovers (last lost: %v)",
				spec.Job, result.Failovers-1, down)
		}
		c.ctrFailovers.Add(uint64(len(down)))
		if len(lost) == 0 {
			lostAt = start
		}
		lost = append(lost, down...)
		// The rolled-back state replays deterministically, so history
		// entries below ckpt.step stay valid as computed.
		s = ckpt.step
		return nil
	}

	for s < spec.Steps {
		traced := c.cfg.Tracer.Enabled()
		start := c.cfg.Tracer.Now()
		if shards == nil {
			var w string
			var err error
			shards, w, err = c.createShards(spec, ckpt, trace)
			switch {
			case errors.Is(err, ErrWorkerDown):
				if err := failover([]string{w}, start); err != nil {
					return SolveResult{}, err
				}
			case err != nil && len(lost) > 0:
				return SolveResult{}, fmt.Errorf("cluster: re-shard after losing %v: %w", lost, err)
			case err != nil:
				return SolveResult{}, err
			case len(lost) > 0:
				// The recovery is over. One event per lost worker, then
				// one span from the start of the round that lost the
				// first, which the cluster analyzer charges to the step
				// that replays.
				for _, w := range lost {
					c.cfg.Tracer.Emit(obs.Event{Kind: obs.KindFailover, Name: w, Worker: -1,
						Node: obs.CoordNode, Trace: trace, Epoch: int64(s),
						A: int64(s), B: int64(len(c.Live()))})
				}
				c.cfg.Tracer.Emit(obs.Event{Kind: obs.KindFailover, Name: spec.Job, Worker: -1,
					Node: obs.CoordNode, Trace: trace, Epoch: int64(s),
					Dur: c.cfg.Tracer.Now().Sub(lostAt), A: int64(s), B: int64(len(lost))})
				lost = nil
			}
			continue
		}

		wantCkpt := spec.CheckpointEvery > 0 && (s+1)%spec.CheckpointEvery == 0
		resps := make([]StepResponse, len(shards))
		errs := make([]error, len(shards))
		rpcDur := make([]time.Duration, len(shards))
		var wg sync.WaitGroup
		for i := range shards {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var t0 time.Time
				if traced {
					t0 = c.cfg.Tracer.Now()
				}
				resps[i], errs[i] = shards[i].client.StepShard(StepRequest{
					Job:        spec.Job,
					ID:         shards[i].id,
					Step:       s,
					Planes:     shards[i].inbox,
					Checkpoint: wantCkpt,
					Trace:      trace,
					Reuse:      snapshotBuffers(spare, shards[i].lo, shards[i].hi),
				})
				if traced {
					rpcDur[i] = c.cfg.Tracer.Now().Sub(t0)
				}
			}(i)
		}
		wg.Wait()

		var down []string
		for i, err := range errs {
			switch {
			case err == nil:
			case errors.Is(err, ErrWorkerDown):
				down = append(down, shards[i].worker)
			default:
				// A worker that answers an error is alive: its solver
				// failed on this state, and any survivor would fail the
				// same replay.
				c.releaseShards(spec, shards, trace, s)
				return SolveResult{}, fmt.Errorf("cluster: step %d on %q: %w", s, shards[i].worker, err)
			}
		}
		if len(down) > 0 {
			if err := failover(down, start); err != nil {
				return SolveResult{}, err
			}
			continue
		}

		stat, err := foldStep(spec, resps)
		if err != nil {
			c.releaseShards(spec, shards, trace, s)
			return SolveResult{}, err
		}
		stat.Flops = flops
		result.History[s] = stat

		planes := 0
		if err := routePlanes(shards, resps); err != nil {
			c.releaseShards(spec, shards, trace, s)
			return SolveResult{}, err
		}
		for i := range resps {
			planes += len(resps[i].Planes)
		}
		c.ctrSteps.Inc()
		c.ctrPlanes.Add(uint64(planes))
		if traced {
			now := c.cfg.Tracer.Now()
			for i := range shards {
				// One RPC span per worker, all on the coordinator's
				// clock: the per-step straggler is the longest of these.
				c.cfg.Tracer.Emit(obs.Event{Kind: obs.KindStepRPC, Name: spec.Job, Worker: i,
					Node: shards[i].worker, Trace: trace, Epoch: int64(s),
					Dur: rpcDur[i], A: int64(s), B: int64(len(shards))})
			}
			c.cfg.Tracer.Emit(obs.Event{Kind: obs.KindShardStep, Name: spec.Job, Worker: -1,
				Node: obs.CoordNode, Trace: trace, Epoch: int64(s),
				Dur: now.Sub(start), A: int64(s), B: int64(len(shards))})
			c.cfg.Tracer.Emit(obs.Event{Kind: obs.KindExchange, Name: spec.Job, Worker: -1,
				Node: obs.CoordNode, Trace: trace, Epoch: int64(s),
				A: int64(s), B: int64(planes)})
		}

		if wantCkpt {
			spare, ckpt = ckpt.snaps, checkpoint{step: s + 1, snaps: collectSnapshots(resps)}
		}
		s++
	}

	c.releaseShards(spec, shards, trace, spec.Steps)
	c.ctrSolves.Inc()
	result.Workers = len(shards) // the last plan's
	for _, sh := range shards {
		result.Groups = append(result.Groups, [2]int{sh.lo, sh.hi})
	}
	return result, nil
}

// createShards plans the zone groups over the currently live workers
// and creates one shard per group, restoring the checkpoint state when
// one exists. Initial donor planes come back with creation and are
// routed into the shards' inboxes, so the first lockstep step needs no
// extra round-trip. A create that fails releases the shards made so far
// and returns the worker that answered it with its error.
func (c *Coordinator) createShards(spec SolveSpec, ckpt checkpoint, trace string) ([]*runShard, string, error) {
	ranked := c.rank(spec.Job)
	if len(ranked) == 0 {
		return nil, "", fmt.Errorf("cluster: no live workers")
	}
	nz := len(spec.Config.Case.Zones)
	granted := sched.PlateauGrant(nz, len(ranked))
	workers := ranked[:granted]
	// k zones per shard is the stair-step plateau: the lockstep wall
	// time is the slowest shard's, so only the max group size matters,
	// exactly as ceil(m/p) governs a loop's chunks.
	k := (nz + granted - 1) / granted

	shards := make([]*runShard, 0, granted)
	initPlanes := make([]StepResponse, 0, granted)
	for i, w := range workers {
		lo := i * k
		hi := lo + k
		if hi > nz {
			hi = nz
		}
		client, err := c.client(w)
		if err != nil {
			c.releaseShards(spec, shards, trace, ckpt.step)
			return nil, w, err
		}
		var restore []SnapshotWire
		for _, snap := range ckpt.snaps {
			if snap.Zone >= lo && snap.Zone < hi {
				restore = append(restore, snap)
			}
		}
		resp, err := client.CreateShard(CreateShardRequest{
			Job:      spec.Job,
			Lo:       lo,
			Hi:       hi,
			Config:   spec.Config,
			PulseAmp: spec.PulseAmp,
			Restore:  restore,
			Step:     ckpt.step,
			Trace:    trace,
		})
		if err != nil {
			c.releaseShards(spec, shards, trace, ckpt.step)
			return nil, w, fmt.Errorf("cluster: create shard on %q: %w", w, err)
		}
		shards = append(shards, &runShard{worker: w, client: client, id: resp.ID, lo: lo, hi: hi})
		initPlanes = append(initPlanes, StepResponse{Planes: resp.Planes})
	}
	// Route the creation-time donor planes now that every shard exists:
	// they are the exchange input of the first lockstep step.
	if err := routePlanes(shards, initPlanes); err != nil {
		c.releaseShards(spec, shards, trace, ckpt.step)
		return nil, "", err
	}
	return shards, "", nil
}

// releaseShards frees the shards best-effort (lost workers will
// refuse; that is fine — their state dies with them).
func (c *Coordinator) releaseShards(spec SolveSpec, shards []*runShard, trace string, epoch int) {
	for _, sh := range shards {
		if sh == nil {
			continue
		}
		_ = sh.client.ReleaseShard(ReleaseRequest{Job: spec.Job, ID: sh.id,
			Trace: trace, Epoch: int64(epoch)})
	}
}

// foldStep reassembles the global step statistics from the shard
// responses: per-zone sum-of-squares folded in global zone order (the
// single-node summation order — grouping partial sums per shard would
// change the float result), max-delta as a max.
func foldStep(spec SolveSpec, resps []StepResponse) (StepStat, error) {
	parts := make([]*ZonePart, len(spec.Config.Case.Zones))
	maxDelta := 0.0
	for i := range resps {
		for j := range resps[i].Zones {
			p := &resps[i].Zones[j]
			if p.Zone < 0 || p.Zone >= len(parts) || parts[p.Zone] != nil {
				return StepStat{}, fmt.Errorf("cluster: bad or duplicate residual part for zone %d", p.Zone)
			}
			parts[p.Zone] = p
		}
		if resps[i].MaxDelta > maxDelta {
			maxDelta = resps[i].MaxDelta
		}
	}
	sumsq, n := 0.0, 0
	for zi, p := range parts {
		if p == nil {
			return StepStat{}, fmt.Errorf("cluster: no residual part for zone %d", zi)
		}
		sumsq += p.SumSq
		n += p.Points
	}
	res := 0.0
	if n > 0 {
		res = math.Sqrt(sumsq / float64(n))
	}
	return StepStat{Residual: res, MaxDelta: maxDelta}, nil
}

// routePlanes distributes every outgoing plane to the inbox of the
// shard owning its global receiver zone.
func routePlanes(shards []*runShard, resps []StepResponse) error {
	for i := range shards {
		shards[i].inbox = nil
	}
	for i := range resps {
		for _, b := range resps[i].Planes {
			zone, err := f3d.PlaneZone(b)
			if err != nil {
				return err
			}
			dest := -1
			for j, sh := range shards {
				if zone >= sh.lo && zone < sh.hi {
					dest = j
					break
				}
			}
			if dest < 0 {
				return fmt.Errorf("cluster: plane for zone %d owned by no shard", zone)
			}
			shards[dest].inbox = append(shards[dest].inbox, b)
		}
	}
	return nil
}

// snapshotBuffers returns the storage of the snapshots of zones
// [lo, hi), for reuse.
func snapshotBuffers(snaps []SnapshotWire, lo, hi int) [][]byte {
	var out [][]byte
	for _, s := range snaps {
		if s.Zone >= lo && s.Zone < hi {
			out = append(out, s.Data)
		}
	}
	return out
}

// collectSnapshots merges the checkpoint snapshots of all shards,
// sorted by global zone.
func collectSnapshots(resps []StepResponse) []SnapshotWire {
	var out []SnapshotWire
	for i := range resps {
		out = append(out, resps[i].Snapshots...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Zone < out[j].Zone })
	return out
}
