// Package cluster distributes the F3D solver stack across machines: a
// coordinator ranks registered f3dd worker daemons per job key by
// rendezvous hashing, and a sharded-solve engine splits one multi-zone
// case into contiguous zone groups, one group per worker, stepping all
// shards in lockstep with boundary-plane exchange between steps.
//
// The design extends the paper's loop-level argument one level up. At
// node scope, the stair-step model says a loop of m units on p
// processors runs in ceil(m/p) serial chunks; at cluster scope the
// same arithmetic governs zones per worker, so the shard planner runs
// the identical plateau rule (sched.PlateauGrant) with "processors"
// replaced by whole daemons. And just as the paper demands
// parallelization change nothing about the numerics, the distributed
// solve reproduces the single-node residual history bitwise: a shard is
// an f3d solver whose cross-shard interface sides are f3d.Remote, the
// planes those faces need are captured at the start of each time step
// and cross the transport as raw IEEE-754 bits into the solver's
// Receive, and per-zone residual parts are re-folded in global zone
// order so no floating-point regrouping sneaks in.
//
// The transport is an interface: LocalWorker runs shards in-process
// for deterministic tests (with injectable node loss and slow links),
// HTTPClient/ShardServer carry the same messages over HTTP between
// cmd/f3dc and cmd/f3dd. Bulk data — boundary planes, checkpoint
// snapshots — is encoded bytes in every message and crosses HTTP as
// raw blobs behind a small JSON header in one length-prefixed frame
// (layout in frame.go), so the per-step sync event costs a memory copy,
// not a text encoding. Failover is checkpoint-rollback: the engine
// snapshots all zones every CheckpointEvery steps, and when a worker
// is lost mid-solve it re-plans over the survivors, restores the last
// checkpoint and replays — deterministically, so the history a client
// observed before the loss never changes.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/euler"
	"repro/internal/f3d"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/sched"
)

// ErrWorkerDown is the error a transport returns when the worker is
// unreachable, has lost the shard's state, or has been failed by fault
// injection. It is the coordinator's one sign of a dead worker: a create
// or a step that answers it marks the worker lost and fails over, while
// any other error is the worker's answer and fails the solve.
var ErrWorkerDown = errors.New("cluster: worker down")

// WorkerClient is the coordinator's view of one worker daemon: the three
// shard RPCs a solve makes. An implementation carries them over some
// transport (LocalWorker in-process, HTTPClient over HTTP to an f3dd)
// and answers ErrWorkerDown when the worker cannot be reached.
type WorkerClient interface {
	// CreateShard builds a shard on the worker and returns its id and
	// the donor planes captured from the shard's initial state.
	CreateShard(req CreateShardRequest) (CreateShardResponse, error)
	// StepShard advances a shard one lockstep time step.
	StepShard(req StepRequest) (StepResponse, error)
	// ReleaseShard frees a shard's storage.
	ReleaseShard(req ReleaseRequest) error
}

// CreateShardRequest describes one shard of a sharded solve: the full
// global case plus the contiguous zone range this worker owns. Shipping
// the whole geometry keeps workers stateless — each rebuilds exactly
// the zones it needs and knows which of its faces are fed by remote
// planes.
type CreateShardRequest struct {
	// Job is the workload key; it labels the shard in traces and
	// scopes shard ids.
	Job string `json:"job"`
	// Lo, Hi bound this shard's zones: global indices [Lo, Hi) of
	// Config.Case.Zones.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Config is the global solve: Case.Zones is the global zone list
	// and Interfaces couples it along J (global indices). The worker
	// derives its sub-case from Case.Zones[Lo:Hi]. Dt must be the
	// global time step, never re-estimated per shard, or the shards
	// diverge from the single-node solve.
	Config f3d.Config `json:"config"`
	// PulseAmp is the initial-condition pulse amplitude (InitPulse).
	PulseAmp float64 `json:"pulse_amp"`
	// Restore, when non-empty, overwrites the initial state with
	// checkpointed zone snapshots (global zone indices) — the failover
	// path.
	Restore []SnapshotWire `json:"-"`
	// Step is the lockstep step the shard starts at (0 for a fresh
	// solve, the checkpoint step after a failover).
	Step int `json:"step"`
	// Trace is the coordinator-assigned solve id. The worker stamps
	// it (with Step as the epoch) on every span it emits for this
	// shard, so fleet timelines attribute worker-side work to the
	// originating cluster solve.
	Trace string `json:"trace,omitempty"`
}

// CreateShardResponse returns the shard id and the donor planes
// captured from the shard's initial state — the planes its neighbours
// need for the first step.
type CreateShardResponse struct {
	ID string `json:"id"`
	// Planes holds f3d.BoundaryPlane.MarshalBinary payloads addressed
	// to *global* receiver zones.
	Planes [][]byte `json:"-"`
}

// StepRequest advances one shard one time step.
type StepRequest struct {
	Job string `json:"job"`
	ID  string `json:"id"`
	// Step is the lockstep step index; the worker rejects it unless it
	// matches the shard's own counter (lockstep sanity).
	Step int `json:"step"`
	// Planes are the incoming boundary planes (binary payloads,
	// global receiver zones) captured by neighbours at the current
	// time level.
	Planes [][]byte `json:"-"`
	// Checkpoint asks for zone snapshots of the post-step state.
	Checkpoint bool `json:"checkpoint,omitempty"`
	// Trace is the solve id this lockstep step belongs to (Step is
	// its epoch); it correlates worker-side spans across the fleet.
	Trace string `json:"trace,omitempty"`
	// Reuse offers buffers the callee may fill with the response's
	// snapshots instead of allocating: the coordinator passes the
	// checkpoint it is about to drop. The caller must hold no other
	// reference to them. It never crosses the wire.
	Reuse [][]byte `json:"-"`
}

// ZonePart is one zone's contribution to the global step statistics.
// The coordinator re-folds SumSq in global zone order, so the
// reassembled residual is bitwise the single-node one regardless of
// how zones are grouped.
type ZonePart struct {
	// Zone is the global zone index.
	Zone   int     `json:"zone"`
	SumSq  float64 `json:"sumsq"`
	Points int     `json:"points"`
}

// StepResponse carries one shard's step results.
type StepResponse struct {
	// Zones lists per-zone residual parts in global zone order.
	Zones []ZonePart `json:"zones"`
	// MaxDelta is the shard's max-norm solution change.
	MaxDelta float64 `json:"max_delta"`
	// Planes are the donor planes captured from the post-step state —
	// the neighbours' input for the next step.
	Planes [][]byte `json:"-"`
	// Snapshots holds the post-step zone checkpoints when the request
	// asked for them (global zone indices).
	Snapshots []SnapshotWire `json:"-"`
}

// ReleaseRequest frees one shard.
type ReleaseRequest struct {
	Job string `json:"job"`
	ID  string `json:"id"`
	// Trace and Epoch carry the solve id and the lockstep step the
	// release happened at, completing trace propagation across every
	// shard RPC.
	Trace string `json:"trace,omitempty"`
	Epoch int64  `json:"epoch,omitempty"`
}

// SnapshotWire is one zone's checkpoint in transport form: the zone's
// conserved field as packed IEEE-754 bits (f3d.AppendZoneState), so
// checkpoints survive the wire bit-exactly just like boundary planes.
// The coordinator never decodes Data; it hands the bits back on a
// failover Restore.
type SnapshotWire struct {
	// Zone is the global zone index.
	Zone int
	Data []byte
}

// captureSpec is one donor plane a shard must capture every step: the
// local zone and face it reads, and the global zone the plane is
// addressed to.
type captureSpec struct {
	local      int
	face       f3d.Face
	recvGlobal int
}

// shard is one hosted piece of a sharded solve, run as one sched job
// whose Run owns the solver and runs the commands of Create, Step and
// Release on it one at a time. The scheduler keeps a finished job's
// record, so nothing here may hold the solver or the checkpoint
// (restore) past Run.
type shard struct {
	host    *Host
	job     string
	lo, hi  int
	cfg     f3d.Config // the sub-case Config.Case.Zones[lo:hi)
	pulse   float64
	restore []SnapshotWire
	// captures has one entry per cross-shard interface, so its length is
	// also the number of Remote faces: the planes every step must carry.
	captures []captureSpec
	// id and handle are set by Create under the host lock. cmds is
	// unbuffered, so no abandoned command is left in it; a nil command
	// is a release.
	id     string
	handle *sched.Handle
	cmds   chan func(*f3d.CacheSolver) error
	step   int // owned by Run
}

// Host runs shards on a worker, each as a job of the worker's scheduler
// (a grant while it computes, the job deadline, a line in its job
// list). It is the worker-side half of every transport: LocalWorker
// wraps one directly, ShardServer exposes one over HTTP inside f3dd.
type Host struct {
	sched *sched.Scheduler

	mu     sync.Mutex
	shards map[string]*shard
}

// NewHost creates an empty shard host whose shards run as jobs of s
// and emit their spans (shard-step compute, boundary exchange) into
// s's tracer.
func NewHost(s *sched.Scheduler) *Host {
	return &Host{sched: s, shards: make(map[string]*shard)}
}

// ShardCount returns the number of live shard jobs (exported to the
// daemon's healthz).
func (h *Host) ShardCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.shards)
}

// shard returns the live shard id names, or nil.
func (h *Host) shard(id string) *shard {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.shards[id]
}

// Create submits the shard's job and returns once it is granted and
// built: the sub-case Config.Case.Zones[Lo:Hi), whose cross-shard
// interfaces keep their local side and turn the other into f3d.Remote
// (fed by the planes each step carries) plus a capture spec, the solver
// initialized exactly as the single-node solve (shared Dt, same pulse),
// optionally overwritten from checkpoint snapshots. The request comes
// off the wire, so it is validated and bounded before anything is
// allocated. A caller that gives up (ctx) withdraws the queued job.
func (h *Host) Create(ctx context.Context, req CreateShardRequest) (CreateShardResponse, error) {
	zones := req.Config.Case.Zones
	if req.Lo < 0 || req.Hi > len(zones) || req.Lo >= req.Hi {
		return CreateShardResponse{}, fmt.Errorf("cluster: shard range [%d, %d) of %d zones", req.Lo, req.Hi, len(zones))
	}
	if err := f3d.ValidatePulse(req.PulseAmp); err != nil {
		return CreateShardResponse{}, err
	}
	if err := req.Config.Validate(); err != nil {
		return CreateShardResponse{}, fmt.Errorf("cluster: shard config: %w", err)
	}
	if err := checkShardSize(zones[req.Lo:req.Hi]); err != nil {
		return CreateShardResponse{}, err
	}
	sh := &shard{host: h, job: req.Job, lo: req.Lo, hi: req.Hi, cfg: req.Config, pulse: req.PulseAmp,
		restore: req.Restore, step: req.Step, cmds: make(chan func(*f3d.CacheSolver) error)}
	sh.cfg.Case = grid.Case{
		Name:  fmt.Sprintf("%s-shard-%d-%d", req.Job, req.Lo, req.Hi),
		Zones: append([]grid.Zone(nil), zones[req.Lo:req.Hi]...),
	}
	sh.cfg.Interfaces = nil
	local := func(zone int) int {
		if zone < req.Lo || zone >= req.Hi {
			return f3d.Remote
		}
		return zone - req.Lo
	}
	for _, f := range req.Config.Interfaces {
		l := f3d.Interface{Left: local(f.Left), Right: local(f.Right)}
		switch {
		case l.Left == f3d.Remote && l.Right == f3d.Remote:
			continue
		case l.Right == f3d.Remote:
			sh.captures = append(sh.captures, captureSpec{local: l.Left, face: f3d.FaceJMax, recvGlobal: f.Right})
		case l.Left == f3d.Remote:
			sh.captures = append(sh.captures, captureSpec{local: l.Right, face: f3d.FaceJMin, recvGlobal: f.Left})
		}
		sh.cfg.Interfaces = append(sh.cfg.Interfaces, l)
	}
	h.mu.Lock()
	hd, err := h.sched.Submit(sh)
	if err == nil {
		sh.id, sh.handle = strconv.FormatUint(hd.ID(), 10), hd
		h.shards[sh.id] = sh
	}
	h.mu.Unlock()
	if err != nil {
		return CreateShardResponse{}, fmt.Errorf("cluster: shard job: %w", err)
	}
	var planes [][]byte
	if err := h.call(ctx, sh, func(s *f3d.CacheSolver) (err error) {
		planes, err = sh.capturePlanes(s)
		return err
	}); err != nil {
		hd.Cancel()
		h.forget(sh) // a job withdrawn from the queue never runs
		return CreateShardResponse{}, err
	}
	return CreateShardResponse{ID: sh.id, Planes: planes}, nil
}

// forget drops sh from the map. sh.id is read under the lock: Create
// sets it, under the lock, only after Run may have started.
func (h *Host) forget(sh *shard) {
	h.mu.Lock()
	delete(h.shards, sh.id)
	h.mu.Unlock()
}

// Name implements sched.Job.
func (sh *shard) Name() string { return "shard " + sh.job }

// Parallelism implements sched.Job as f3d.Job does.
func (sh *shard) Parallelism() int {
	sp := f3d.StepProfileFor(sh.cfg.Case, f3d.DefaultShape())
	return sp.MaxParallelism()
}

// Run implements sched.Job: it builds the solver on the granted team,
// then runs commands. Between them it parks, holding no processor, and
// each command takes a fresh grant (Checkpoint), which restarts the
// job's deadline. A release, the deadline or a diverged step ends the job,
// and the solver and the host's entry go with it.
func (sh *shard) Run(g *sched.Grant) error {
	defer sh.host.forget(sh)
	solver, err := f3d.NewCacheSolver(sh.cfg, f3d.CacheOptions{Team: g.Team()})
	if err != nil {
		return fmt.Errorf("cluster: shard solver: %w", err)
	}
	defer solver.Close()
	f3d.InitPulse(solver, sh.pulse)
	restore := sh.restore
	sh.restore = nil
	for _, w := range restore {
		if err := f3d.RestoreZoneState(solver, w.Zone-sh.lo, w.Data); err != nil {
			return fmt.Errorf("cluster: restore: %w", err)
		}
	}
	for {
		select {
		case cmd := <-sh.cmds:
			if cmd == nil {
				return nil
			}
			if err := g.Checkpoint(); err != nil {
				return err
			}
			if err := cmd(solver); errors.Is(err, f3d.ErrDiverged) {
				return err
			}
			g.Park()
		case <-g.Context().Done():
			return context.Cause(g.Context())
		}
	}
}

// checkShardSize refuses zones whose snapshot, 8·NC bytes a point,
// would not fit one maxShardBody frame: a failover could never restore
// them. The zones have passed f3d.Config.Validate, so each dimension is
// at least 3 and each partial product bounds the zone's size from below.
func checkShardSize(zones []grid.Zone) error {
	const maxPoints = maxShardBody / (8 * euler.NC)
	total := 0
	for _, z := range zones {
		n := 1
		for _, d := range []int{z.JMax, z.KMax, z.LMax} {
			// n and d are at most maxPoints here: n*d cannot overflow.
			if d > maxPoints || n*d > maxPoints-total {
				return fmt.Errorf("cluster: shard exceeds %d grid points at zone %v (its snapshot must fit one %d-byte frame)",
					maxPoints, z, maxShardBody)
			}
			n *= d
		}
		total += n
	}
	return nil
}

// capturePlanes snapshots every donor plane of the shard at the
// current time level, addressed to its global receiver zone.
func (sh *shard) capturePlanes(solver *f3d.CacheSolver) ([][]byte, error) {
	if len(sh.captures) == 0 {
		return nil, nil
	}
	out := make([][]byte, 0, len(sh.captures))
	for _, c := range sh.captures {
		p, err := f3d.CapturePlane(solver, c.local, c.face)
		if err != nil {
			return nil, fmt.Errorf("cluster: capture: %w", err)
		}
		p = p.RetargetTo(c.recvGlobal)
		b, err := p.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("cluster: encode plane: %w", err)
		}
		out = append(out, b)
	}
	return out, nil
}

// call runs fn on the shard's job and returns its error; when the job
// ends first, gone's; when ctx ends before the job takes fn, ctx's.
func (h *Host) call(ctx context.Context, sh *shard, fn func(*f3d.CacheSolver) error) error {
	done := make(chan error, 1)
	select {
	case sh.cmds <- func(s *f3d.CacheSolver) error { err := fn(s); done <- err; return err }:
	case <-sh.handle.Done():
		return h.gone(sh.id)
	case <-ctx.Done():
		return fmt.Errorf("cluster: shard %q: %w", sh.id, ctx.Err())
	}
	select {
	case err := <-done:
		return err
	case <-sh.handle.Done():
		return h.gone(sh.id)
	}
}

// Step advances one shard one lockstep time step on its job.
// Concurrent steps for one shard queue there, so a duplicate fails the
// lockstep check.
func (h *Host) Step(req StepRequest) (StepResponse, error) {
	sh := h.shard(req.ID)
	if sh == nil {
		return StepResponse{}, h.gone(req.ID)
	}
	var resp StepResponse
	err := h.call(context.Background(), sh, func(s *f3d.CacheSolver) (err error) {
		resp, err = sh.serve(s, req)
		return err
	})
	return resp, err
}

// gone answers for a shard the host does not hold. One whose job ended
// without failing (deadline, release, restart) answers ErrWorkerDown,
// so the coordinator restores from its checkpoint instead of failing
// the solve; a failed one answers its failure; any other id is unknown.
func (h *Host) gone(id string) error {
	jid, _ := strconv.ParseUint(id, 10, 64) // no job has ID 0
	// st stays unnamed for an id the scheduler does not know.
	var st sched.JobStatus
	if j, err := h.sched.Handle(jid); err == nil {
		st = j.Status()
	}
	switch {
	case !strings.HasPrefix(st.Name, "shard "):
		return fmt.Errorf("cluster: no shard %q", id)
	case st.State == sched.StateFailed:
		return fmt.Errorf("cluster: shard %q: %s", id, st.Err)
	}
	return fmt.Errorf("%w: no shard %q: its job is %s", ErrWorkerDown, id, st.State)
}

// serve advances the shard one lockstep time step on Run's goroutine:
// decode the incoming planes, exactly one per Remote face, and hand
// them to the solver's Receive, step the solver, report per-zone
// residual parts and the donor planes for the next step. A step refused
// midway may leave planes staged; the coordinator fails the solve on any
// error a host answers. A diverged step (f3d.ErrDiverged) is answered
// before anything is encoded, and ends the job.
//
// With the scheduler's tracer enabled, the solver step emits one
// KindShardStep span stamped with the solve id and step epoch. The rest
// of the step RPC, wire and plane handling alike, is the exchange the
// cluster analyzer charges against the coordinator's RPC span.
func (sh *shard) serve(solver *f3d.CacheSolver, req StepRequest) (StepResponse, error) {
	if req.Step != sh.step {
		return StepResponse{}, fmt.Errorf("cluster: shard %q at step %d, request for step %d", req.ID, sh.step, req.Step)
	}
	if len(req.Planes) != len(sh.captures) {
		return StepResponse{}, fmt.Errorf("cluster: shard %q has %d remote faces, step %d carries %d planes",
			req.ID, len(sh.captures), req.Step, len(req.Planes))
	}
	for _, b := range req.Planes {
		var p f3d.BoundaryPlane
		if err := p.UnmarshalBinary(b); err != nil {
			return StepResponse{}, fmt.Errorf("cluster: decode plane: %w", err)
		}
		if p.Zone < sh.lo || p.Zone >= sh.hi {
			return StepResponse{}, fmt.Errorf("cluster: plane for zone %d outside shard [%d, %d)", p.Zone, sh.lo, sh.hi)
		}
		p.Zone -= sh.lo
		if err := solver.Receive(&p); err != nil {
			return StepResponse{}, fmt.Errorf("cluster: receive plane: %w", err)
		}
	}
	tr := sh.host.sched.Tracer()
	traced := tr.Enabled()
	var t0 time.Time
	if traced {
		t0 = tr.Now()
	}
	stats, err := f3d.TryStep(solver)
	if err != nil {
		return StepResponse{}, fmt.Errorf("cluster: shard solver failed at step %d: %w", sh.step, err)
	}
	if traced {
		now := tr.Now()
		tr.Emit(obs.Event{Kind: obs.KindShardStep, Name: req.Job, Worker: -1,
			Trace: req.Trace, Epoch: int64(req.Step), At: now,
			Dur: now.Sub(t0), A: int64(req.Step), B: int64(sh.hi - sh.lo)})
	}
	sh.step++
	zres := solver.ZoneResiduals()
	resp := StepResponse{MaxDelta: stats.MaxDelta, Zones: make([]ZonePart, len(zres))}
	for i, zr := range zres {
		resp.Zones[i] = ZonePart{Zone: sh.lo + i, SumSq: zr.SumSq, Points: zr.Points}
	}
	planes, err := sh.capturePlanes(solver)
	if err != nil {
		return StepResponse{}, err
	}
	resp.Planes = planes
	if req.Checkpoint {
		resp.Snapshots = make([]SnapshotWire, 0, sh.hi-sh.lo)
		for zi := 0; zi < sh.hi-sh.lo; zi++ {
			data, err := f3d.AppendZoneState(takeBuf(&req.Reuse), solver, zi)
			if err != nil {
				return StepResponse{}, err
			}
			resp.Snapshots = append(resp.Snapshots, SnapshotWire{Zone: sh.lo + zi, Data: data})
		}
	}
	return resp, nil
}

// Release ends a shard's job, which finishes done, and returns once
// the job has. An id the host does not hold is an error (gone), so
// lockstep bookkeeping bugs surface.
func (h *Host) Release(req ReleaseRequest) error {
	sh := h.shard(req.ID)
	if sh == nil {
		return h.gone(req.ID)
	}
	select {
	case sh.cmds <- nil:
	case <-sh.handle.Done():
	}
	<-sh.handle.Done()
	return nil
}

// takeBuf takes the first buffer off a free list, emptied; nil when
// none is left. Taking in order keeps each zone on the buffer it filled
// last time, which is the one that fits.
func takeBuf(free *[][]byte) []byte {
	if len(*free) == 0 {
		return nil
	}
	b := (*free)[0]
	*free = (*free)[1:]
	return b[:0]
}

// interiorPoints sums the implicit-update interior of the zones, the
// flop-count basis (boundary points are explicit, as in f3d).
func interiorPoints(zones []grid.Zone) int {
	total := 0
	for i := range zones {
		z := &zones[i]
		total += (z.JMax - 2) * (z.KMax - 2) * (z.LMax - 2)
	}
	return total
}
