package f3d

import (
	"fmt"
	"math"

	"repro/internal/euler"
	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/parloop"
	"repro/internal/profile"
)

// CacheOptions configures a CacheSolver.
type CacheOptions struct {
	// Team executes the parallel regions. nil runs everything serially
	// (a private one-worker team).
	Team *parloop.Team
	// Shape is the cell the solver reads its step structure from: which
	// phases are parallel, fissioned or merged. It is loaded once per
	// Step, so a Store from a planner (internal/autopar/pipeline) or a
	// harness applies at the next step boundary. nil runs DefaultShape.
	// Shapes change only the synchronization structure; results are
	// identical under every one.
	Shape *ShapeCfg
	// ZoneTeams enables multi-level parallelism (the MLP style of the
	// paper's §8 related work, Taft's OVERFLOW-MLP): zones advance
	// concurrently, each on its own team running the loop-level regions.
	// Must have one team per zone; Team is ignored when set. Zones are
	// independent within a step (interface data is captured up front),
	// so results remain bitwise identical to the serial ordering.
	ZoneTeams []*parloop.Team
	// Profiler, when set, is charged the wall-clock time of every phase
	// (per zone), keyed "zone/phase" — the prof-style measurement the
	// paper's incremental workflow starts from. Not supported together
	// with ZoneTeams (phases of different zones overlap in time).
	Profiler *profile.Profiler
	// PhaseTrace, when non-empty, relabels the team's tracer around
	// each phase as "<PhaseTrace>/<phase>", so a traced run ranks the
	// step's phases as separate loops — the per-loop evidence the
	// pipeline plans from. The caller's label is restored after each
	// step. Not supported together with ZoneTeams (phases of different
	// zones overlap).
	PhaseTrace string
	// BoundaryHook, when set, is called once per zone per step inside
	// the boundary phase — after the zone's boundary conditions and
	// local interface planes are applied, before its right-hand side.
	// It runs on a single goroutine and must not open regions on the
	// zone's team (with ZoneTeams, hooks of different zones run
	// concurrently).
	// The cluster shard engine uses it to write boundary planes received
	// from zones living on other workers (BoundaryPlane.Apply), which
	// lands remote data at exactly the point applyInterfacesTo lands
	// local data, keeping the distributed step bitwise identical to the
	// single-node one.
	BoundaryHook func(zone int)
}

// shapeCell returns the options' shape cell, or a fresh one holding
// DefaultShape when none was given.
func (o CacheOptions) shapeCell() *ShapeCfg {
	if o.Shape != nil {
		return o.Shape
	}
	return NewShapeCfg(DefaultShape())
}

// cacheScratch is one worker's private working set: a pencil plus flux
// and spectral-radius line buffers. Its size is proportional to the
// largest zone dimension — the paper's §4 resizing of scratch arrays
// "to hold just a single row or column of a single plane of data".
type cacheScratch struct {
	p        *pencil
	kern     *kernelSet
	flux     []linalg.Vec5
	sigma    []float64
	maxDelta float64
}

func newCacheScratch(nmax int, kern *kernelSet) *cacheScratch {
	return &cacheScratch{
		p:     newPencil(nmax),
		kern:  kern,
		flux:  make([]linalg.Vec5, nmax),
		sigma: make([]float64, nmax),
	}
}

// applyUpdate adds the solved update r[1..n-2] of the pencil's line to
// its q and tracks the worker's largest |Δ|.
func (sc *cacheScratch) applyUpdate(n int) {
	for i := 1; i <= n-2; i++ {
		for c := 0; c < euler.NC; c++ {
			d := sc.p.r[i][c]
			sc.p.q[i][c] += d
			if d < 0 {
				d = -d
			}
			if d > sc.maxDelta {
				sc.maxDelta = d
			}
		}
	}
}

// CacheSolver is the RISC-tuned variant of the solver: point-major
// storage, pencil-sized scratch, unit-stride inner loops, and
// loop-level parallelism over the outer dimensions via a parloop.Team.
type CacheSolver struct {
	cfg       Config
	zones     []*ZoneState
	team      *parloop.Team
	ownedTeam bool
	opts      CacheOptions
	kern      *kernelSet
	scratch   []*cacheScratch

	// Multi-level parallelism (opts.ZoneTeams): the outer team runs one
	// section per zone; each zone has its own loop-level team and
	// scratch set.
	outer       *parloop.Team
	zoneScratch [][]*cacheScratch

	// ifbufs holds the zonal-interface exchange buffers (nil when the
	// case has no interfaces).
	ifbufs []ifaceBuffer

	// zoneRes records the last step's per-zone residual parts, so a
	// cluster coordinator can reassemble the global residual in zone
	// order bitwise (ZoneResiduals).
	zoneRes []ZoneResidual

	// curShape is the step shape loaded at Step entry, held constant
	// for the whole step so a concurrent ShapeCfg.Store cannot tear a
	// step across two shapes.
	curShape StepShape

	steps int
}

// NewCacheSolver builds the cache-tuned solver for cfg. It always runs
// the tuned inner-loop kernels (kernels_tuned.go): they restructure
// loops without changing any per-element operation order, so results
// are bitwise identical to the scalar reference forms — internal/check's
// matrix verifies the equivalence on every build.
func NewCacheSolver(cfg Config, opts CacheOptions) (*CacheSolver, error) {
	return newCacheSolver(cfg, opts, &tunedKernelSet)
}

// NewReferenceSolver builds the conformance reference: the same solver
// running the plain scalar kernels of kernels.go, serially. It takes no
// options — in particular no Team — so a served path cannot end up on
// the slow kernels by accident; internal/check, benchdump's
// tuned-vs-scalar ratio series and the tests are its only callers.
func NewReferenceSolver(cfg Config) (*CacheSolver, error) {
	return newCacheSolver(cfg, CacheOptions{}, &scalarKernelSet)
}

func newCacheSolver(cfg Config, opts CacheOptions, kern *kernelSet) (*CacheSolver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &CacheSolver{cfg: cfg, opts: opts, team: opts.Team, kern: kern}
	if len(opts.ZoneTeams) > 0 && len(opts.ZoneTeams) != len(cfg.Case.Zones) {
		return nil, fmt.Errorf("f3d: ZoneTeams has %d teams for %d zones",
			len(opts.ZoneTeams), len(cfg.Case.Zones))
	}
	if opts.Profiler != nil && len(opts.ZoneTeams) > 0 {
		return nil, fmt.Errorf("f3d: Profiler is not supported with ZoneTeams (phases overlap)")
	}
	if opts.PhaseTrace != "" && len(opts.ZoneTeams) > 0 {
		return nil, fmt.Errorf("f3d: PhaseTrace is not supported with ZoneTeams (phases overlap)")
	}
	s.opts.Shape = opts.shapeCell()
	if s.team == nil {
		s.team = parloop.NewTeam(1)
		s.ownedTeam = true
	}
	for i := range cfg.Case.Zones {
		s.zones = append(s.zones, newZoneState(&cfg.Case.Zones[i], grid.PointMajor, kern.points))
	}
	if len(opts.ZoneTeams) > 0 {
		s.outer = parloop.NewTeam(len(cfg.Case.Zones))
		s.zoneScratch = make([][]*cacheScratch, len(opts.ZoneTeams))
	}
	s.ensureScratch()
	if len(cfg.Interfaces) > 0 {
		s.ifbufs = newIfaceBuffers(cfg.Case, cfg.Interfaces)
	}
	return s, nil
}

// Close releases the solver's private teams (the default one-worker
// team when no Team was supplied, and the zone-level outer team of the
// MLP mode). Caller-supplied teams are left open.
func (s *CacheSolver) Close() {
	if s.ownedTeam {
		s.team.Close()
	}
	if s.outer != nil {
		s.outer.Close()
	}
}

// Zones implements Solver.
func (s *CacheSolver) Zones() []*ZoneState { return s.zones }

// Config implements Solver.
func (s *CacheSolver) Config() *Config { return &s.cfg }

// Team returns the team executing the parallel regions.
func (s *CacheSolver) Team() *parloop.Team { return s.team }

// Steps returns the number of time steps taken.
func (s *CacheSolver) Steps() int { return s.steps }

// ensureScratch grows the per-worker scratch sets — the primary team's
// and, under ZoneTeams, each zone team's — to their team sizes. A
// scheduler may grow a team between steps (parloop.Team.Resize); the
// extra workers need private pencils before the next region opens.
// Shrunk teams simply leave the tail of their scratch set idle.
func (s *CacheSolver) ensureScratch() {
	for len(s.scratch) < s.team.Workers() {
		s.scratch = append(s.scratch, newCacheScratch(s.cfg.Case.MaxDim(), s.kern))
	}
	for zi, tm := range s.opts.ZoneTeams {
		set := &s.zoneScratch[zi]
		for len(*set) < tm.Workers() {
			*set = append(*set, newCacheScratch(s.cfg.Case.Zones[zi].MaxDim(), s.kern))
		}
	}
}

// ZoneResidual is one zone's share of a step's residual: the
// serial-order sum of squares over its interior points and the point
// count. Summing shares across zones in case order and taking
// sqrt(sum/points) reproduces StepStats.Residual bitwise — the fact
// the cluster engine relies on to reassemble a sharded solve's
// residual history exactly.
type ZoneResidual struct {
	SumSq  float64
	Points int
}

// ZoneResiduals returns the per-zone residual parts of the most recent
// Step, indexed like Zones(). It returns nil before the first step;
// the slice is reused by the next Step.
func (s *CacheSolver) ZoneResiduals() []ZoneResidual { return s.zoneRes }

// Shape returns the shape the most recent step ran under (before the
// first step: the shape the next step would load).
func (s *CacheSolver) Shape() StepShape {
	if s.steps == 0 {
		return s.opts.Shape.Load()
	}
	return s.curShape
}

// Step implements Solver: one implicit time step over all zones.
func (s *CacheSolver) Step() StepStats {
	var stats StepStats
	s.curShape = s.opts.Shape.Load()
	if s.opts.PhaseTrace != "" {
		old := s.team.Label()
		defer s.team.SetLabel(old)
	}
	s.ensureScratch()
	if s.zoneRes == nil {
		s.zoneRes = make([]ZoneResidual, len(s.zones))
	}
	if s.ifbufs != nil {
		captureInterfaces(s.zones, s.cfg.Interfaces, s.ifbufs)
	}
	if s.outer != nil {
		// MLP: zones advance concurrently, each on its own team. The
		// per-zone results land in zone-indexed slots, so aggregation
		// order — and therefore every reported float — matches the
		// sequential path bitwise.
		tasks := make([]func(), len(s.zones))
		for zi := range s.zones {
			tasks[zi] = func() {
				s.zoneRes[zi] = s.stepZoneOn(zi, s.opts.ZoneTeams[zi], s.zoneScratch[zi])
			}
		}
		s.outer.Sections(tasks...)
	} else {
		for zi := range s.zones {
			s.zoneRes[zi] = s.stepZoneOn(zi, s.team, s.scratch)
		}
	}
	sumsq, n := 0.0, 0
	for _, zr := range s.zoneRes {
		sumsq += zr.SumSq
		n += zr.Points
	}
	// Each worker's largest update, zeroed as it is read for the next step.
	takeMax := func(set []*cacheScratch) {
		for _, sc := range set {
			if sc.maxDelta > stats.MaxDelta {
				stats.MaxDelta = sc.maxDelta
			}
			sc.maxDelta = 0
		}
	}
	takeMax(s.scratch)
	for _, set := range s.zoneScratch {
		takeMax(set)
	}
	if n > 0 {
		stats.Residual = math.Sqrt(sumsq / float64(n))
	}
	stats.Flops = float64(n) * FlopsPerPoint() // n counts the interior points
	s.steps++
	return stats
}

// stepZoneOn advances one zone on the given team with the given
// per-worker scratch and returns the zone's residual share.
func (s *CacheSolver) stepZoneOn(zi int, team *parloop.Team, scratch []*cacheScratch) (res ZoneResidual) {
	sh := s.curShape
	if sh.Merged && team.Workers() > 1 {
		s.relabel(team, "step")
		return s.stepZoneMerged(zi, team, scratch)
	}
	zs := s.zones[zi]
	z := zs.Zone
	nl, nk := z.LMax-2, z.KMax-2

	// phase relabels the tracer for the phase's regions (if phase
	// tracing is on) and charges the phase's wall-clock time to the
	// profiler (if any).
	phase := func(name string, fn func()) {
		s.relabel(team, name)
		if s.opts.Profiler == nil {
			fn()
			return
		}
		s.opts.Profiler.Time(z.Name+"/"+name, fn)
	}

	// slabs is a phase that is one pass over the n interior slabs of its
	// partition dimension: a region when the shape makes it parallel and
	// the team can split it, else whole on the calling goroutine.
	slabs := func(name string, par bool, n int, pass func(sc *cacheScratch, lo, hi int)) {
		phase(name, func() {
			if par && team.Workers() > 1 {
				team.Region(func(ctx *parloop.WorkerCtx) {
					lo, hi := ctx.Range(n)
					pass(scratch[ctx.ID()], 1+lo, 1+hi)
				})
			} else {
				pass(scratch[0], 1, 1+n)
			}
		})
	}

	phase("bc", func() {
		if sh.BC && team.Workers() > 1 {
			team.Region(func(ctx *parloop.WorkerCtx) {
				s.bcWorker(zs, ctx.ID(), ctx.Workers())
			})
		} else {
			zs.applyBC(&s.cfg)
		}
		if s.ifbufs != nil {
			applyInterfacesTo(zi, s.zones, s.cfg.Interfaces, s.ifbufs)
		}
		if s.opts.BoundaryHook != nil {
			s.opts.BoundaryHook(zi)
		}
	})

	// Explicit right-hand side (J+K passes share the L partition and
	// need no barrier between them; the L pass re-partitions over K).
	// Fissioned, each pass is its own region — or serial on the calling
	// goroutine — so a plan can parallelize one side of the mixed body
	// while leaving the other serial. The passes were barrier-separated
	// already, so every variant computes identical bits.
	if sh.FissionRHS {
		slabs("rhs-jk", sh.RHSJK, nl, func(sc *cacheScratch, lo, hi int) { rhsPassJK(zs, &s.cfg, sc, lo, hi) })
		slabs("rhs-l", sh.RHSL, nk, func(sc *cacheScratch, lo, hi int) { rhsPassL(zs, &s.cfg, sc, lo, hi) })
	} else {
		phase("rhs", func() {
			if sh.RHSJK && sh.RHSL && team.Workers() > 1 {
				team.Region(func(ctx *parloop.WorkerCtx) {
					sc := scratch[ctx.ID()]
					lo, hi := ctx.Range(nl)
					rhsPassJK(zs, &s.cfg, sc, 1+lo, 1+hi)
					ctx.Barrier()
					lo, hi = ctx.Range(nk)
					rhsPassL(zs, &s.cfg, sc, 1+lo, 1+hi)
				})
			} else {
				sc := scratch[0]
				rhsPassJK(zs, &s.cfg, sc, 1, 1+nl)
				rhsPassL(zs, &s.cfg, sc, 1, 1+nk)
			}
		})
	}

	phase("residual", func() {
		res.SumSq, res.Points = zs.residualSumSq()
	})

	// Implicit sweeps: J and K share the L partition (one region, no
	// barrier — merged loops); L re-partitions over K and applies the
	// update.
	slabs("sweep-jk", sh.SweepJK, nl, func(sc *cacheScratch, lo, hi int) { s.sweepJK(zs, sc, lo, hi) })
	slabs("sweep-l", sh.SweepL, nk, func(sc *cacheScratch, lo, hi int) { s.sweepLUpdate(zs, sc, lo, hi) })
	return res
}

// relabel points the team's tracer at one phase of the step, so the
// trace ranks phases as separate loops. A no-op without PhaseTrace.
func (s *CacheSolver) relabel(team *parloop.Team, name string) {
	if s.opts.PhaseTrace == "" {
		return
	}
	team.SetLabel(s.opts.PhaseTrace + "/" + name)
}

// stepZoneMerged is stepZoneOn with every phase hoisted into a single
// parallel region (Example 3), phases separated by barriers.
func (s *CacheSolver) stepZoneMerged(zi int, team *parloop.Team, scratch []*cacheScratch) (res ZoneResidual) {
	zs := s.zones[zi]
	z := zs.Zone
	nl, nk := z.LMax-2, z.KMax-2
	team.Region(func(ctx *parloop.WorkerCtx) {
		id := ctx.ID()
		sc := scratch[id]
		if s.curShape.BC {
			s.bcWorker(zs, id, ctx.Workers())
		} else if id == 0 {
			zs.applyBC(&s.cfg)
		}
		if s.ifbufs != nil {
			// The exchange overrides coupled faces after all BC writes.
			ctx.Barrier()
			if id == 0 {
				applyInterfacesTo(zi, s.zones, s.cfg.Interfaces, s.ifbufs)
			}
		}
		if s.opts.BoundaryHook != nil {
			ctx.Barrier()
			if id == 0 {
				s.opts.BoundaryHook(zi)
			}
		}
		ctx.Barrier()
		llo, lhi := ctx.Range(nl)
		klo, khi := ctx.Range(nk)
		rhsPassJK(zs, &s.cfg, sc, 1+llo, 1+lhi)
		ctx.Barrier()
		rhsPassL(zs, &s.cfg, sc, 1+klo, 1+khi)
		ctx.Barrier()
		if id == 0 {
			res.SumSq, res.Points = zs.residualSumSq()
		}
		ctx.Barrier()
		s.sweepJK(zs, sc, 1+llo, 1+lhi)
		ctx.Barrier()
		s.sweepLUpdate(zs, sc, 1+klo, 1+khi)
	})
	return res
}

// bcWorker applies this worker's share of the boundary conditions,
// partitioned over the L dimension of the zone. It delegates to the
// same per-point routine as the serial path, so results are identical.
func (s *CacheSolver) bcWorker(zs *ZoneState, worker, workers int) {
	z := zs.Zone
	lo, hi := parloop.StaticRange(z.LMax, workers, worker)
	for l := lo; l < hi; l++ {
		for k := 0; k < z.KMax; k++ {
			for j := 0; j < z.JMax; j++ {
				if j == 0 || j == z.JMax-1 || k == 0 || k == z.KMax-1 || l == 0 || l == z.LMax-1 {
					zs.applyBCPoint(&s.cfg, j, k, l)
				}
			}
		}
	}
}

func clampInterior(i, n int) int {
	if i == 0 {
		return 1
	}
	if i == n-1 {
		return n - 2
	}
	return i
}

// rhsPassJK computes the J- and K-direction right-hand-side
// contributions for the L slab [l0, l1). The J pass initializes R; the
// K pass accumulates into it. Both touch only points within the slab,
// so the two passes merge under one parallel region (Example 2). It is
// shared by every solver variant that stores point-major fields.
func rhsPassJK(zs *ZoneState, cfg *Config, sc *cacheScratch, l0, l1 int) {
	z := zs.Zone
	nJ, nK := z.JMax, z.KMax
	for l := l0; l < l1; l++ {
		zs.fillPoints(l)
		for k := 1; k <= z.KMax-2; k++ {
			loadLine(&zs.Q, euler.X, k, l, sc.p.q, nJ)
			loadPoints(zs, euler.X, k, l, sc.p.s, nJ)
			sc.kern.rhsFlux(euler.X, sc.p.q, sc.p.s, sc.flux, sc.sigma, nJ)
			clear(sc.p.r[:nJ])
			sc.kern.rhsAccum(sc.p.q, sc.flux, sc.sigma, sc.p.r, nJ, z.DJ, cfg.Dt, cfg.Eps4, cfg.Eps2B, zs.geom[euler.X])
			storeLineInterior(&zs.R, euler.X, k, l, sc.p.r, nJ)
		}
		for j := 1; j <= z.JMax-2; j++ {
			loadLine(&zs.Q, euler.Y, j, l, sc.p.q, nK)
			loadPoints(zs, euler.Y, j, l, sc.p.s, nK)
			sc.kern.rhsFlux(euler.Y, sc.p.q, sc.p.s, sc.flux, sc.sigma, nK)
			loadLine(&zs.R, euler.Y, j, l, sc.p.r, nK)
			sc.kern.rhsAccum(sc.p.q, sc.flux, sc.sigma, sc.p.r, nK, z.DK, cfg.Dt, cfg.Eps4, cfg.Eps2B, zs.geom[euler.Y])
			storeLineInterior(&zs.R, euler.Y, j, l, sc.p.r, nK)
		}
	}
}

// rhsPassL accumulates the L-direction right-hand-side contribution for
// the K slab [k0, k1). It reads and writes points across the whole L
// extent, so a barrier must separate it from the J/K passes.
func rhsPassL(zs *ZoneState, cfg *Config, sc *cacheScratch, k0, k1 int) {
	z := zs.Zone
	nL := z.LMax
	for k := k0; k < k1; k++ {
		for j := 1; j <= z.JMax-2; j++ {
			loadLine(&zs.Q, euler.Z, j, k, sc.p.q, nL)
			loadPoints(zs, euler.Z, j, k, sc.p.s, nL)
			sc.kern.rhsFlux(euler.Z, sc.p.q, sc.p.s, sc.flux, sc.sigma, nL)
			loadLine(&zs.R, euler.Z, j, k, sc.p.r, nL)
			sc.kern.rhsAccum(sc.p.q, sc.flux, sc.sigma, sc.p.r, nL, z.DL, cfg.Dt, cfg.Eps4, cfg.Eps2B, zs.geom[euler.Z])
			if cfg.Viscous {
				viscousLineAccum(sc.p.q, sc.p.r, nL, z.DL, cfg.Dt, cfg.Re, zs.geom[euler.Z])
			}
			storeLineInterior(&zs.R, euler.Z, j, k, sc.p.r, nL)
		}
	}
}

// sweepJK applies the J and K implicit factors for the L slab [l0, l1).
// The tuned sweep reads the point records in place of Q; only the scalar
// reference, which keeps none, gathers Q here.
func (s *CacheSolver) sweepJK(zs *ZoneState, sc *cacheScratch, l0, l1 int) {
	z, cfg := zs.Zone, &s.cfg
	nJ, nK := z.JMax, z.KMax
	for l := l0; l < l1; l++ {
		for k := 1; k <= z.KMax-2; k++ {
			if !loadPoints(zs, euler.X, k, l, sc.p.s, nJ) {
				loadLine(&zs.Q, euler.X, k, l, sc.p.q, nJ)
			}
			loadLine(&zs.R, euler.X, k, l, sc.p.r, nJ)
			sc.kern.sweepLine(sc.p, nJ, euler.X, z.DJ, cfg.Dt, cfg.EpsI, 0, zs.geom[euler.X], cfg.ImplicitDissip4)
			storeLineInterior(&zs.R, euler.X, k, l, sc.p.r, nJ)
		}
		for j := 1; j <= z.JMax-2; j++ {
			if !loadPoints(zs, euler.Y, j, l, sc.p.s, nK) {
				loadLine(&zs.Q, euler.Y, j, l, sc.p.q, nK)
			}
			loadLine(&zs.R, euler.Y, j, l, sc.p.r, nK)
			sc.kern.sweepLine(sc.p, nK, euler.Y, z.DK, cfg.Dt, cfg.EpsI, 0, zs.geom[euler.Y], cfg.ImplicitDissip4)
			storeLineInterior(&zs.R, euler.Y, j, l, sc.p.r, nK)
		}
	}
}

// sweepLUpdate applies the L implicit factor and the conserved-variable
// update for the K slab [k0, k1).
func (s *CacheSolver) sweepLUpdate(zs *ZoneState, sc *cacheScratch, k0, k1 int) {
	z, cfg := zs.Zone, &s.cfg
	nL := z.LMax
	for k := k0; k < k1; k++ {
		for j := 1; j <= z.JMax-2; j++ {
			loadLine(&zs.Q, euler.Z, j, k, sc.p.q, nL)
			loadPoints(zs, euler.Z, j, k, sc.p.s, nL)
			loadLine(&zs.R, euler.Z, j, k, sc.p.r, nL)
			sc.kern.sweepLine(sc.p, nL, euler.Z, z.DL, cfg.Dt, cfg.EpsI, cfg.viscRe(), zs.geom[euler.Z], cfg.ImplicitDissip4)
			sc.applyUpdate(nL)
			storeLineInterior(&zs.Q, euler.Z, j, k, sc.p.q, nL)
		}
	}
}
