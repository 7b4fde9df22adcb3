package f3d

import (
	"math"
	"slices"

	"repro/internal/grid"
	"repro/internal/parloop"
)

// StepShape is the one description of how the cache solver's time step
// is parallelized — the paper's §4 decision, loop by loop: which phases
// run inside parallel regions, and whether the whole step is hoisted
// into one merged region (Example 3). f3dd serves DefaultShape; cmd/f3d's
// -merged/-parbc flags and the tests write the others. Phases left
// serial still execute, just on the calling goroutine. Every shape
// computes the identical per-element operation order, so residual
// histories stay bitwise equal to the serial reference —
// TestShapedStepsMatchSerialBitwise checks all 2⁵ values.
type StepShape struct {
	// RHS parallelizes the right-hand-side region: the J/K passes, a
	// barrier, then the L pass.
	RHS bool
	// SweepJK parallelizes the J and K implicit sweeps (both are
	// partitioned over L, so they share one region with no internal
	// barrier — the paper's Example 2); SweepL the L sweep and the
	// solution update.
	SweepJK bool
	SweepL  bool
	// BC parallelizes the boundary-condition routines. The paper leaves
	// these serial because their loops are too cheap to amortize a
	// synchronization (§3); DefaultShape follows suit.
	BC bool
	// Merged hoists the step into a single region with barriers
	// between phases (Example 3: parallelize the parent subroutine),
	// amortizing the fork-join cost across every phase; the per-phase
	// parallel flags are then subsumed except BC, which still selects
	// worker-partitioned vs worker-0-serial boundary conditions.
	Merged bool
}

// DefaultShape returns the production step structure, the one every
// served job runs: RHS and both sweeps parallel, boundary conditions
// serial, one region per phase (four synchronization events per zone
// per step).
func DefaultShape() StepShape {
	return StepShape{RHS: true, SweepJK: true, SweepL: true}
}

// The zone step is declared once, as an ordered list of phases, and a
// StepShape is lowered onto it in one place (lowerShape); runGroup is
// the only code in the package that opens a region or a barrier. The
// paper's §4 choices — parallelize a loop, merge loops under one region
// (Example 2), hoist the region into the parent (Example 3), leave the
// boundary conditions serial — are choices of region structure over this
// one unchanged sequence, which is why none of them changes a bit of the
// result (DESIGN.md §9).
const (
	phBC = iota
	phRHSJK
	phRHSL
	phResidual
	phSweepJK
	phSweepL
	numPhases
)

// phase is one entry of the zone step: a pass over the slabs
// [lo, lo+n) of its partition dimension (n == 0: not a slab pass, never
// split), then an optional tail that runs on one goroutine once every
// slab is done — the boundary phase's interface exchange.
type phase struct {
	lo, n int
	pass  func(worker, lo, hi int)
	after func()
}

// group is a run of consecutive phases [first, end) executed as one
// unit: one region when any of its phases is split, with a barrier
// between phases. A traced step emits one phase span per group,
// named "<zone>/<group>" (parloop.Team.Phase).
type group struct {
	name       string
	first, end int
}

var (
	// One region per phase; the two RHS passes share theirs.
	groupsSeed = []group{
		{"bc", phBC, phRHSJK}, {"rhs", phRHSJK, phResidual}, {"residual", phResidual, phSweepJK},
		{"sweep-jk", phSweepJK, phSweepL}, {"sweep-l", phSweepL, numPhases},
	}
	groupsMerged = []group{{"step", phBC, numPhases}}
)

// lowering is a StepShape as the executor reads it: which phases are
// split across the team, and how the phases group into regions.
type lowering struct {
	split  [numPhases]bool
	groups []group
}

// lowerShape is the one rule from shape to region structure. Merged
// joins every phase and splits every pass (BC still chooses split or
// worker-0 boundary conditions); otherwise each phase is its own group,
// except that the RHS joins its two passes and splits them together.
// The residual is never split.
func lowerShape(sh StepShape) lowering {
	groups := groupsSeed
	if sh.Merged {
		sh.RHS, sh.SweepJK, sh.SweepL, groups = true, true, true, groupsMerged
	}
	return lowering{[numPhases]bool{phBC: sh.BC, phRHSJK: sh.RHS, phRHSL: sh.RHS, phSweepJK: sh.SweepJK, phSweepL: sh.SweepL}, groups}
}

// runGroup executes one group on team. With nothing split, or no team
// or a one-worker team, it runs on the calling goroutine. Otherwise it is one
// region: split passes take the worker's static share of the slabs,
// unsplit ones run whole on worker 0, and a barrier separates
// consecutive phases. A tail runs on worker 0 (behind a barrier when its
// pass was split) — except the group's last, which runs after the join.
func runGroup(team *parloop.Team, phases []phase, split []bool) {
	if team == nil || team.Workers() == 1 || !slices.Contains(split, true) {
		for _, p := range phases {
			p.pass(0, p.lo, p.lo+p.n)
			if p.after != nil {
				p.after()
			}
		}
		return
	}
	last := len(phases) - 1
	team.Region(func(ctx *parloop.WorkerCtx) {
		id := ctx.ID()
		for i, p := range phases {
			if i > 0 {
				ctx.Barrier()
			}
			if split[i] {
				lo, hi := ctx.Range(p.n)
				p.pass(id, p.lo+lo, p.lo+hi)
			} else if id == 0 {
				p.pass(0, p.lo, p.lo+p.n)
			}
			if p.after != nil && i < last {
				if split[i] {
					ctx.Barrier()
				}
				if id == 0 {
					p.after()
				}
			}
		}
	})
	if after := phases[last].after; after != nil {
		after()
	}
}

// stepCore is the solver state the step driver reads. CacheSolver and
// BlockSolver embed it and differ only in the two sweep passes they hand
// to stepZone (and in what newScratch builds for them).
type stepCore struct {
	cfg   Config
	zones []*ZoneState
	opts  CacheOptions
	team  *parloop.Team
	owned []*parloop.Team // the teams the solver made, which Close closes

	// scratch is the primary team's per-worker working sets, grown to
	// the team size at every step entry: a scheduler may grow the team
	// between steps (parloop.Team.Resize), and the extra workers need
	// private pencils before the next region opens. A shrunk team
	// leaves the tail idle.
	scratch    []*cacheScratch
	newScratch func(nmax int) *cacheScratch

	// links is the zonal-interface link table, one per coupled face
	// (nil when the case has no interfaces).
	links []link

	// zoneRes records the last step's per-zone residual parts, so a
	// cluster coordinator can reassemble the global residual in zone
	// order bitwise (ZoneResiduals).
	zoneRes []ZoneResidual

	// shape is the step shape every step runs and low its lowering, both
	// fixed when the solver is built; spans[zi][gi] names zone zi's
	// group gi for its phase span, "<zone>/<group>", built once so a step
	// allocates no names.
	shape StepShape
	low   lowering
	spans [][]string

	steps int
}

func newStepCore(cfg Config, opts CacheOptions, points bool, newScratch func(nmax int) *cacheScratch) (stepCore, error) {
	if err := cfg.Validate(); err != nil {
		return stepCore{}, err
	}
	shape := DefaultShape()
	if opts.Shape != nil {
		shape = *opts.Shape
	}
	c := stepCore{cfg: cfg, opts: opts, team: opts.Team, newScratch: newScratch, shape: shape, low: lowerShape(shape),
		zoneRes: make([]ZoneResidual, len(cfg.Case.Zones))}
	if c.team == nil {
		c.team = parloop.NewTeam(1)
		c.owned = append(c.owned, c.team)
	}
	for i := range cfg.Case.Zones {
		c.zones = append(c.zones, newZoneState(&cfg.Case.Zones[i], grid.PointMajor, points))
		names := make([]string, len(c.low.groups))
		for gi, g := range c.low.groups {
			names[gi] = cfg.Case.Zones[i].Name + "/" + g.name
		}
		c.spans = append(c.spans, names)
	}
	c.links = newLinks(cfg.Case, cfg.Interfaces)
	return c, nil
}

// Close releases the teams the solver made (the one-worker team when
// no Team was supplied, the zone-level outer team of the MLP mode;
// caller-supplied teams are left open) and hands its zone storage to
// the next solver of the same shape: the zones' Q, R and point records
// are invalid after Close, and reading them panics (a slice of them
// kept from before Close is another solver's storage).
func (c *stepCore) Close() {
	for _, tm := range c.owned {
		tm.Close()
	}
	c.owned = nil
	for _, zs := range c.zones {
		zs.release()
	}
}

// Zones implements Solver.
func (c *stepCore) Zones() []*ZoneState { return c.zones }

// Config implements Solver.
func (c *stepCore) Config() *Config { return &c.cfg }

// Team returns the team executing the parallel regions.
func (c *stepCore) Team() *parloop.Team { return c.team }

// Steps returns the number of time steps taken.
func (c *stepCore) Steps() int { return c.steps }

// ZoneResiduals returns the per-zone residual parts of the most recent
// Step, indexed like Zones(). It holds zeros before the first step;
// the slice is reused by the next Step.
func (c *stepCore) ZoneResiduals() []ZoneResidual { return c.zoneRes }

// Shape returns the shape every step of the solver runs.
func (c *stepCore) Shape() StepShape { return c.shape }

// grow extends a per-worker scratch set to the given team size.
func (c *stepCore) grow(set []*cacheScratch, workers, nmax int) []*cacheScratch {
	for len(set) < workers {
		set = append(set, c.newScratch(nmax))
	}
	return set
}

// begin opens a time step: it sizes the scratch to the team, captures
// the local links' donor planes and consumes the remote links' received
// ones.
func (c *stepCore) begin() {
	captureLinks(c.links, c.zones)
	c.scratch = c.grow(c.scratch, c.team.Workers(), c.cfg.Case.MaxDim())
}

// stepZone advances zone zi on team with the given per-worker scratch
// and implicit sweep passes, leaving the zone's residual share in
// zoneRes[zi]. This is the phase list; everything about regions and
// barriers is lowerShape's and runGroup's.
func (c *stepCore) stepZone(zi int, team *parloop.Team, scratch []*cacheScratch, sweepJK, sweepL func(zs *ZoneState, sc *cacheScratch, lo, hi int)) {
	zs, cfg, res := c.zones[zi], &c.cfg, &c.zoneRes[zi]
	z := zs.Zone
	// The exchange overrides coupled faces after all boundary writes.
	var exchange func()
	if c.links != nil {
		exchange = func() { applyLinks(c.links, zi, zs) }
	}
	// J and K passes share the L partition, so each pair is one phase
	// with no barrier inside (merged loops); the L passes re-partition
	// over K and read across the whole L extent.
	phases := [numPhases]phase{
		phBC:       {0, z.LMax, func(_, lo, hi int) { zs.applyBCPlanes(cfg, lo, hi) }, exchange},
		phRHSJK:    {1, z.LMax - 2, func(w, lo, hi int) { rhsPassJK(zs, cfg, scratch[w], lo, hi) }, nil},
		phRHSL:     {1, z.KMax - 2, func(w, lo, hi int) { rhsPassL(zs, cfg, scratch[w], lo, hi) }, nil},
		phResidual: {0, 0, func(int, int, int) { res.SumSq, res.Points = zs.residualSumSq() }, nil},
		phSweepJK:  {1, z.LMax - 2, func(w, lo, hi int) { sweepJK(zs, scratch[w], lo, hi) }, nil},
		phSweepL:   {1, z.KMax - 2, func(w, lo, hi int) { sweepL(zs, scratch[w], lo, hi) }, nil},
	}
	for gi, g := range c.low.groups {
		team.Phase(c.spans[zi][gi], func() {
			runGroup(team, phases[g.first:g.end], c.low.split[g.first:g.end])
		})
	}
}

// finish closes the step: the zones' residual shares fold in zone order
// — so every reported float matches the sequential path bitwise however
// the zones were scheduled — and each worker's largest update is read
// and zeroed for the next step. The interior point count scales the
// flop estimate.
func (c *stepCore) finish(flopsPerPoint float64, zoneSets ...[]*cacheScratch) StepStats {
	var stats StepStats
	sumsq, n := 0.0, 0
	for _, zr := range c.zoneRes {
		sumsq += zr.SumSq
		n += zr.Points
	}
	takeMax := func(set []*cacheScratch) {
		for _, sc := range set {
			stats.MaxDelta = max(stats.MaxDelta, sc.maxDelta)
			sc.maxDelta = 0
		}
	}
	takeMax(c.scratch)
	for _, set := range zoneSets {
		takeMax(set)
	}
	if n > 0 {
		stats.Residual = math.Sqrt(sumsq / float64(n))
	}
	stats.Flops = float64(n) * flopsPerPoint
	c.steps++
	return stats
}
