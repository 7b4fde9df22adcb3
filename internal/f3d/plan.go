package f3d

import "sync/atomic"

// StepShape is the one description of how the cache solver's time step
// is parallelized — the paper's §4 decision, loop by loop: which phases
// run inside parallel regions, whether the RHS region is fissioned into
// two independent regions, and whether the whole step is hoisted into
// one merged region (Example 3). Hand-written callers, cmd/f3d's
// -merged/-parbc flags and the auto-parallelization planner all write
// this type; nothing else selects a step's structure. Phases left
// serial still execute, just on the calling goroutine. Every shape
// computes the identical per-element operation order, so residual
// histories stay bitwise equal to the serial reference — the
// plan-conformance cells in internal/check prove this for each
// transform, and TestShapedStepsMatchSerialBitwise for all 2⁷ values.
type StepShape struct {
	// RHSJK parallelizes the J/K right-hand-side passes; RHSL the L
	// pass. With FissionRHS false the two passes share one region (the
	// seed structure) and run parallel only when both flags are set.
	RHSJK bool
	RHSL  bool
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
	// FissionRHS splits the RHS into two regions — one per pass — so
	// each side can be parallel or serial independently. The passes
	// were separated by a barrier already, so fission changes only the
	// synchronization structure, never the arithmetic.
	FissionRHS bool
	// Merged hoists the step into a single region with barriers
	// between phases (Example 3: parallelize the parent subroutine),
	// amortizing the fork-join cost across every phase; the per-phase
	// parallel flags are then subsumed except BC, which still selects
	// worker-partitioned vs worker-0-serial boundary conditions.
	Merged bool
}

// DefaultShape returns the production step structure, the one every
// served job runs unless a plan replaces it: RHS and both sweeps
// parallel, boundary conditions serial, one region per phase (four
// synchronization events per zone per step).
func DefaultShape() StepShape {
	return StepShape{RHSJK: true, RHSL: true, SweepJK: true, SweepL: true}
}

// ShapeCfg is the cell a solver reads its StepShape from: atomically
// swappable, so a planner (or a test harness) may retarget the shape
// between steps while the solver runs.
// Step loads the shape once at step entry, so a mid-step Store takes
// effect at the next step boundary — exactly where resizes and
// adaptive re-picks already land.
type ShapeCfg struct {
	v atomic.Pointer[StepShape]
}

// NewShapeCfg returns a config holding s.
func NewShapeCfg(s StepShape) *ShapeCfg {
	c := &ShapeCfg{}
	c.Store(s)
	return c
}

// Store publishes a new shape; the solver adopts it at its next step.
func (c *ShapeCfg) Store(s StepShape) { c.v.Store(&s) }

// Load returns the current shape.
func (c *ShapeCfg) Load() StepShape { return *c.v.Load() }
