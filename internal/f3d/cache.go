package f3d

import (
	"fmt"

	"repro/internal/euler"
	"repro/internal/linalg"
	"repro/internal/parloop"
)

// CacheOptions configures a CacheSolver or a BlockSolver (both run the
// step driver of step.go).
type CacheOptions struct {
	// Team executes the parallel regions. nil runs everything serially
	// (a private one-worker team).
	Team *parloop.Team
	// Shape is the step structure every step runs: which phases are
	// parallel, and whether they merge into one region. nil runs
	// DefaultShape. Shapes change only the synchronization structure;
	// results are identical under every one.
	Shape *StepShape
	// ZoneTeams enables multi-level parallelism (the MLP style of the
	// paper's §8 related work, Taft's OVERFLOW-MLP): zones advance
	// concurrently, each on its own team running the loop-level regions.
	// Must have one team per zone; Team is ignored when set; BlockSolver
	// does not support it. Zones are
	// independent within a step (interface data is captured up front),
	// so results remain bitwise identical to the serial ordering.
	ZoneTeams []*parloop.Team
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
	// blk is the block sweeps' bands; nil except on BlockSolver.
	blk *blockScratch
}

func newCacheScratch(nmax int, kern *kernelSet) *cacheScratch {
	return &cacheScratch{
		p:     newPencil(nmax),
		kern:  kern,
		flux:  make([]linalg.Vec5, nmax),
		sigma: make([]float64, nmax),
	}
}

// CacheSolver is the RISC-tuned variant of the solver: point-major
// storage, pencil-sized scratch, unit-stride inner loops, and
// loop-level parallelism over the outer dimensions via a parloop.Team.
type CacheSolver struct {
	stepCore

	// Multi-level parallelism (opts.ZoneTeams): the outer team runs one
	// section per zone; each zone has its own loop-level team and
	// scratch set.
	outer       *parloop.Team
	zoneScratch [][]*cacheScratch
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
// the slow kernels by accident; internal/check and the tests (among
// them the tuned-vs-scalar step-speed guard) are its only callers.
func NewReferenceSolver(cfg Config) (*CacheSolver, error) {
	return newCacheSolver(cfg, CacheOptions{}, &scalarKernelSet)
}

func newCacheSolver(cfg Config, opts CacheOptions, kern *kernelSet) (*CacheSolver, error) {
	if len(opts.ZoneTeams) > 0 {
		if len(opts.ZoneTeams) != len(cfg.Case.Zones) {
			return nil, fmt.Errorf("f3d: ZoneTeams has %d teams for %d zones",
				len(opts.ZoneTeams), len(cfg.Case.Zones))
		}
	}
	core, err := newStepCore(cfg, opts, kern.points, func(nmax int) *cacheScratch { return newCacheScratch(nmax, kern) })
	if err != nil {
		return nil, err
	}
	s := &CacheSolver{stepCore: core}
	if n := len(opts.ZoneTeams); n > 0 {
		s.outer = parloop.NewTeam(n)
		s.owned = append(s.owned, s.outer)
		s.zoneScratch = make([][]*cacheScratch, n)
	}
	return s, nil
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

// Step implements Solver: one implicit time step over all zones.
func (s *CacheSolver) Step() StepStats {
	s.begin()
	if s.outer == nil {
		for zi := range s.zones {
			s.stepZone(zi, s.team, s.scratch, s.sweepJK, s.sweepLUpdate)
		}
		return s.finish(FlopsPerPoint())
	}
	// MLP: zones advance concurrently, each on its own team with its own
	// scratch set (zones are independent within a step: the interface
	// data was captured up front).
	tasks := make([]func(), len(s.zones))
	for zi, tm := range s.opts.ZoneTeams {
		s.zoneScratch[zi] = s.grow(s.zoneScratch[zi], tm.Workers(), s.cfg.Case.Zones[zi].MaxDim())
		tasks[zi] = func() { s.stepZone(zi, tm, s.zoneScratch[zi], s.sweepJK, s.sweepLUpdate) }
	}
	s.outer.Sections(tasks...)
	return s.finish(FlopsPerPoint(), s.zoneScratch...)
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
// contributions for the L slab [l0, l1). The J pass initializes R's
// interior, working on Q, the point records and R in place; the K pass
// gathers its lines and accumulates into R. Both touch only points
// within the slab, so the two passes merge under one parallel region
// (Example 2). It is shared by every solver variant that stores
// point-major fields.
func rhsPassJK(zs *ZoneState, cfg *Config, sc *cacheScratch, l0, l1 int) {
	z := zs.Zone
	nJ, nK := z.JMax, z.KMax
	for l := l0; l < l1; l++ {
		zs.fillPoints(l)
		for k := 1; k <= z.KMax-2; k++ {
			q, s, r := zs.lineJ(k, l)
			sc.kern.rhsFlux(euler.X, q, s, sc.flux, sc.sigma, nJ)
			clear(r[1 : nJ-1])
			sc.kern.rhsAccum(q, sc.flux, sc.sigma, r, nJ, z.DJ, cfg.Dt, cfg.Eps4, cfg.Eps2B, zs.geom[euler.X])
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
// J lines are solved in place in R. K lines are gathered: the tuned sweep
// reads the point records in place of Q, so only the scalar reference,
// which keeps none, gathers Q.
func (s *CacheSolver) sweepJK(zs *ZoneState, sc *cacheScratch, l0, l1 int) {
	z, cfg := zs.Zone, &s.cfg
	nJ, nK := z.JMax, z.KMax
	for l := l0; l < l1; l++ {
		for k := 1; k <= z.KMax-2; k++ {
			q, ps, r := zs.lineJ(k, l)
			sc.kern.sweepLine(sc.p, q, ps, r, nJ, euler.X, z.DJ, cfg.Dt, cfg.EpsI, 0, zs.geom[euler.X], cfg.ImplicitDissip4)
		}
		for j := 1; j <= z.JMax-2; j++ {
			if !loadPoints(zs, euler.Y, j, l, sc.p.s, nK) {
				loadLine(&zs.Q, euler.Y, j, l, sc.p.q, nK)
			}
			loadLine(&zs.R, euler.Y, j, l, sc.p.r, nK)
			sc.kern.sweepLine(sc.p, sc.p.q, sc.p.s, sc.p.r, nK, euler.Y, z.DK, cfg.Dt, cfg.EpsI, 0, zs.geom[euler.Y], cfg.ImplicitDissip4)
			storeLineInterior(&zs.R, euler.Y, j, l, sc.p.r, nK)
		}
	}
}

// sweepLUpdate applies the L implicit factor and the conserved-variable
// update for the K slab [k0, k1): each solved line is added into Q where
// it lives. Like the K lines of sweepJK, only the scalar reference
// gathers Q.
func (s *CacheSolver) sweepLUpdate(zs *ZoneState, sc *cacheScratch, k0, k1 int) {
	z, cfg := zs.Zone, &s.cfg
	nL := z.LMax
	for k := k0; k < k1; k++ {
		for j := 1; j <= z.JMax-2; j++ {
			if !loadPoints(zs, euler.Z, j, k, sc.p.s, nL) {
				loadLine(&zs.Q, euler.Z, j, k, sc.p.q, nL)
			}
			loadLine(&zs.R, euler.Z, j, k, sc.p.r, nL)
			sc.kern.sweepLine(sc.p, sc.p.q, sc.p.s, sc.p.r, nL, euler.Z, z.DL, cfg.Dt, cfg.EpsI, cfg.viscRe(), zs.geom[euler.Z], cfg.ImplicitDissip4)
			sc.maxDelta = addLineInterior(&zs.Q, euler.Z, j, k, sc.p.r, nL, sc.maxDelta)
		}
	}
}
