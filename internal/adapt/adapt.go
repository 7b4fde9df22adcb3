// Package adapt closes the loop between observation and scheduling: a
// per-loop feedback controller that consumes obs/analyze verdicts
// (imbalance fraction, barrier share, Table 1 budget fail) between time
// steps and re-picks {schedule, chunk, workers} for each instrumented
// loop. The scheduler's plateau grant (sched.PlateauGrant) bounds the
// worker pick; the controller never feeds back into grants.
//
// The paper fixes those choices up front from Table 1 budgets and
// Table 3 plateaus; "Dynamic Loop Parallelisation" (Jackson &
// Agathokleous) and the synergistic static/dynamic/speculative study
// (PAPERS.md) argue they should be re-made at runtime from measured
// behavior. The controller here is a trial-based optimizer with two
// properties the test battery enforces:
//
//   - Hysteresis: a candidate configuration is adopted only when its
//     measured score improves on the incumbent by more than
//     5 %, and the applied configuration changes at most once per
//     two-observation window — never mid-window.
//   - Bounded exploration: each diagnosis round enqueues at most
//     8 candidates, a configuration is trialed at most once
//     between drift resets, and a rejected configuration is never
//     revisited — so on a stationary workload the controller reaches
//     a fixed point within 2*(space+2) observations and
//     cannot oscillate.
//
// Mid-flight reconfiguration is conformance-safe by construction: a
// re-pick changes only how iterations are dealt to workers (it is read
// once per step, before the region opens), never the iteration set
// itself, so residual history is bitwise unchanged —
// internal/check's adaptive cells prove it kernel by kernel.
package adapt

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/model"
	"repro/internal/parloop"
	"repro/internal/sched"
)

// Choice is one point of the controller's search space: a full
// {schedule, chunk, workers} configuration for a loop.
type Choice struct {
	Sched   parloop.Schedule `json:"sched"`
	Chunk   int              `json:"chunk"`
	Workers int              `json:"workers"`
}

// String renders the choice compactly for logs and reports.
func (c Choice) String() string {
	return fmt.Sprintf("%v/c%d/w%d", c.Sched, c.Chunk, c.Workers)
}

// Verdict is one step's worth of measured evidence about a loop — the
// distilled form of an obs/analyze per-loop report. All fields are
// tolerated degenerate (negative wall, NaN or infinite fractions); the
// controller sanitizes on intake so a garbage verdict can never push a
// pick outside the legal envelope.
type Verdict struct {
	// WallNs is the step's wall time for this loop; the controller's
	// score is mean wall per step (lower is better).
	WallNs int64 `json:"wall_ns"`
	// ImbalanceFrac, BarrierFrac and SyncFrac are the analyze
	// attribution fractions of wall time (stair-step/join imbalance,
	// mid-region barrier waits, modeled synchronization overhead).
	ImbalanceFrac float64 `json:"imbalance_frac"`
	BarrierFrac   float64 `json:"barrier_frac"`
	SyncFrac      float64 `json:"sync_frac"`
	// BudgetPass is the loop's Table 1 verdict: enough work per sync
	// event for the machine's sync cost.
	BudgetPass bool `json:"budget_pass"`
}

// sanitize clamps a verdict into its documented domain so downstream
// arithmetic never sees NaN, Inf or negative values.
func sanitize(v Verdict) Verdict {
	clampFrac := func(f float64) float64 {
		if math.IsNaN(f) || f < 0 {
			return 0
		}
		if f > 1 || math.IsInf(f, 1) {
			return 1
		}
		return f
	}
	if v.WallNs < 0 {
		v.WallNs = 0
	}
	v.ImbalanceFrac = clampFrac(v.ImbalanceFrac)
	v.BarrierFrac = clampFrac(v.BarrierFrac)
	v.SyncFrac = clampFrac(v.SyncFrac)
	return v
}

// The controller's fixed judgment rules.
const (
	// settleSteps is the measurement window: observations per score
	// before a judgment.
	settleSteps = 2
	// hysteresisPct: a candidate must beat the incumbent score by
	// more than this percentage to be adopted.
	hysteresisPct float64 = 5
	// driftPct: a measured degradation of the incumbent beyond this
	// percentage (a workload phase change) resets the explored set
	// and re-opens the search.
	driftPct float64 = 30
	// maxProbes caps candidates enqueued per diagnosis round
	// (bounded exploration).
	maxProbes = 8
	// maxHistory caps the retained decision log.
	maxHistory = 256
)

// Config parameterizes a Controller. The zero value is unusable; Procs
// must be >= 1. Every other field has a documented default.
type Config struct {
	// Procs is the hard ceiling on Workers picks (the machine or
	// grant size). Required.
	Procs int
	// M is the loop's units of parallelism; Workers picks never
	// exceed min(M, Procs) and the worker axis explores only the
	// stair-step plateaus of M. Default Procs.
	M int
	// Schedules is the legal schedule axis. Default parloop.Schedules().
	Schedules []parloop.Schedule
	// Chunks is the legal chunk axis. Default {1, 4, 16, 64}.
	Chunks []int
}

func (c Config) withDefaults() Config {
	if c.Procs < 1 {
		panic(fmt.Sprintf("adapt: Config.Procs must be >= 1, got %d", c.Procs))
	}
	if c.M < 1 {
		c.M = c.Procs
	}
	if len(c.Schedules) == 0 {
		c.Schedules = parloop.Schedules()
	}
	if len(c.Chunks) == 0 {
		c.Chunks = []int{1, 4, 16, 64}
	}
	return c
}

// workerPlateaus returns the legal worker axis: the stair-step
// plateaus of M capped at Procs (always at least {1}).
func (c Config) workerPlateaus() []int {
	plats := model.PlateauProcs(c.M, c.Procs)
	if len(plats) == 0 {
		plats = []int{1}
	}
	return plats
}

// ConvergenceHorizon returns the worst-case number of observations a
// controller with this config needs to reach a fixed point from any
// start on a stationary workload: every configuration in the space is
// trialed at most once (the visited set guarantees that), each trial
// costs one settleSteps window, plus the incumbent's baseline window
// and one window of slack. Tests and the chaos cost-shift fault size
// their runs with this bound.
func ConvergenceHorizon(cfg Config) int {
	full := cfg.withDefaults()
	space := len(full.workerPlateaus()) * len(full.Schedules) * len(full.Chunks)
	return settleSteps * (space + 2)
}

// Actions a Decision can record.
const (
	ActionHold      = "hold"        // mid-window, or converged: no change
	ActionMeasure   = "measure"     // first window: incumbent baseline taken
	ActionExplore   = "explore"     // a candidate starts its trial window
	ActionAdopt     = "adopt"       // trial beat the incumbent by > hysteresis
	ActionReject    = "reject"      // trial failed; incumbent restored
	ActionConverged = "converged"   // diagnosis has no untried candidates
	ActionDrift     = "drift-reset" // incumbent degraded; search re-opened
)

// Decision is one controller step's outcome: the action taken and the
// configuration applied from this step on.
type Decision struct {
	Step   int    `json:"step"`
	Action string `json:"action"`
	// Choice is the configuration in effect after this decision.
	Choice Choice `json:"choice"`
	// Judged is the candidate whose window closed this step (adopt or
	// reject), if any.
	Judged *Choice `json:"judged,omitempty"`
	// ScoreNs is the judged window's mean wall ns per step;
	// BaselineNs the incumbent's score it was compared to.
	ScoreNs    float64 `json:"score_ns,omitempty"`
	BaselineNs float64 `json:"baseline_ns,omitempty"`
	Reason     string  `json:"reason,omitempty"`
}

// Controller is the per-loop feedback controller. One goroutine calls
// Observe once per step; any goroutine may call Choice, Converged or
// Status concurrently (f3dd's /adapt endpoint does).
type Controller struct {
	mu    sync.Mutex
	label string
	cfg   Config

	active   Choice // configuration currently applied (what verdicts measure)
	best     Choice // incumbent: best adopted configuration
	score    float64
	measured bool // score holds a completed incumbent window
	inTrial  bool // active != best: a candidate is being measured

	queue     []Choice
	rejected  map[Choice]bool
	visited   map[Choice]bool // trialed or adopted since the last drift reset
	converged bool

	step    int
	winN    int
	winWall float64
	winImb  float64
	winBar  float64
	winSync float64
	winPass int
	lastAvg Verdict // the most recent completed window's averaged verdict

	history []Decision
}

// New returns a controller starting from the given choice (legalized
// into the config's envelope). label names the loop in status reports.
func New(label string, start Choice, cfg Config) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{
		label:    label,
		cfg:      cfg,
		rejected: make(map[Choice]bool),
		visited:  make(map[Choice]bool),
	}
	c.active = c.legalize(start)
	c.best = c.active
	c.visited[c.active] = true
	return c
}

// legalize clamps a choice into the legal envelope: schedule from
// cfg.Schedules, chunk >= 1, workers a plateau in [1, min(M, Procs)].
func (c *Controller) legalize(ch Choice) Choice {
	ok := false
	for _, s := range c.cfg.Schedules {
		if ch.Sched == s {
			ok = true
			break
		}
	}
	if !ok {
		ch.Sched = c.cfg.Schedules[0]
	}
	if ch.Chunk < 1 {
		ch.Chunk = 1
	}
	plats := c.cfg.workerPlateaus()
	// Round workers down to the nearest legal plateau (up to the
	// smallest when below it).
	w := plats[0]
	for _, p := range plats {
		if p <= ch.Workers {
			w = p
		}
	}
	ch.Workers = w
	return ch
}

// Choice returns the configuration the loop should run with now.
func (c *Controller) Choice() Choice {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.active
}

// Converged reports whether the search is at a fixed point (it re-opens
// only on a drift reset).
func (c *Controller) Converged() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.converged
}

// Observe feeds one step's verdict for the loop and returns the
// decision taken. The returned Decision.Choice is the configuration to
// apply for the next step.
func (c *Controller) Observe(v Verdict) Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	v = sanitize(v)
	c.step++
	c.winN++
	c.winWall += float64(v.WallNs)
	c.winImb += v.ImbalanceFrac
	c.winBar += v.BarrierFrac
	c.winSync += v.SyncFrac
	if v.BudgetPass {
		c.winPass++
	}
	if c.winN < settleSteps {
		return Decision{Step: c.step, Action: ActionHold, Choice: c.active}
	}

	// Window complete: judge it.
	n := float64(c.winN)
	mean := c.winWall / n
	avg := Verdict{
		WallNs:        int64(mean),
		ImbalanceFrac: c.winImb / n,
		BarrierFrac:   c.winBar / n,
		SyncFrac:      c.winSync / n,
		BudgetPass:    c.winPass*2 >= c.winN,
	}
	c.winN, c.winWall, c.winImb, c.winBar, c.winSync, c.winPass = 0, 0, 0, 0, 0, 0
	c.lastAvg = avg

	d := c.judge(mean, avg)
	c.record(d)
	return d
}

// judge closes a measurement window. Called with the lock held.
func (c *Controller) judge(mean float64, avg Verdict) Decision {
	d := Decision{Step: c.step, Choice: c.active}

	if c.inTrial {
		judged := c.active
		d.Judged = &judged
		d.ScoreNs = mean
		d.BaselineNs = c.score
		if mean < c.score*(1-hysteresisPct/100) {
			c.best = c.active
			c.score = mean
			d.Action = ActionAdopt
			d.Reason = fmt.Sprintf("%s improved on %.4g ns/step", judged, d.BaselineNs)
		} else {
			c.rejected[judged] = true
			c.active = c.best
			d.Action = ActionReject
			d.Reason = fmt.Sprintf("%s did not beat %.4g ns/step by >%.3g%%",
				judged, d.BaselineNs, hysteresisPct)
		}
		c.inTrial = false
		d.Choice = c.active
		c.startNextTrial(&d)
		return d
	}

	// Incumbent window.
	if !c.measured {
		c.measured = true
		c.score = mean
		d.Action = ActionMeasure
		d.ScoreNs = mean
	} else if c.converged && mean > c.score*(1+driftPct/100) {
		// Phase change: the adopted configuration degraded well past
		// hysteresis. Re-open the whole search.
		d.Action = ActionDrift
		d.ScoreNs = mean
		d.BaselineNs = c.score
		d.Reason = fmt.Sprintf("incumbent %.4g -> %.4g ns/step (> %.3g%% drift)",
			c.score, mean, driftPct)
		c.converged = false
		c.rejected = make(map[Choice]bool)
		c.visited = map[Choice]bool{c.active: true}
		c.queue = nil
		c.score = mean
	} else {
		// Track the incumbent so hysteresis compares against current
		// conditions, not a stale measurement.
		c.score = mean
		d.Action = ActionHold
		d.ScoreNs = mean
	}
	c.startNextTrial(&d)
	return d
}

// startNextTrial pops the next untried candidate (refilling the queue
// from diagnosis when empty) and begins its trial; with nothing left to
// try it declares convergence. Called with the lock held; d is updated
// in place. A decision that already adopted/rejected keeps its action —
// the new trial is visible through d.Choice.
func (c *Controller) startNextTrial(d *Decision) {
	if c.converged {
		return
	}
	for {
		if len(c.queue) == 0 {
			c.queue = c.diagnose()
		}
		if len(c.queue) == 0 {
			c.converged = true
			if d.Action == ActionHold || d.Action == ActionMeasure {
				d.Action = ActionConverged
				d.Reason = fmt.Sprintf("no untried candidates; fixed point %s", c.best)
			}
			return
		}
		cand := c.queue[0]
		c.queue = c.queue[1:]
		if c.visited[cand] || c.rejected[cand] || cand == c.active {
			continue
		}
		c.visited[cand] = true
		c.active = cand
		c.inTrial = true
		if d.Action == ActionHold || d.Action == ActionMeasure {
			d.Action = ActionExplore
		}
		d.Choice = cand
		return
	}
}

// diagnose proposes the next candidates from the most recent window's
// averaged verdict, ordered by the symptom they treat, then fills with
// a systematic sweep so convergence implies the whole space was
// considered. At most maxProbes are returned. Called with the lock
// held.
func (c *Controller) diagnose() []Choice {
	avgImb := c.winImbAvg()
	var out []Choice
	seen := make(map[Choice]bool)
	add := func(ch Choice) {
		ch = c.legalize(ch)
		if seen[ch] || c.visited[ch] || c.rejected[ch] || ch == c.best {
			return
		}
		seen[ch] = true
		out = append(out, ch)
	}
	hasSched := func(want parloop.Schedule) bool {
		for _, s := range c.cfg.Schedules {
			if s == want {
				return true
			}
		}
		return false
	}
	plats := c.cfg.workerPlateaus()
	cur := c.best

	imbalanced := avgImb.ImbalanceFrac >= 0.10 || avgImb.BarrierFrac >= 0.10
	syncBound := avgImb.SyncFrac >= 0.05 || !avgImb.BudgetPass

	if imbalanced {
		// Ragged iteration costs: dealing chunks on demand (or cyclically)
		// balances what a one-shot static deal cannot.
		for _, s := range []parloop.Schedule{parloop.Dynamic, parloop.Guided, parloop.StaticCyclic} {
			if !hasSched(s) {
				continue
			}
			for _, ch := range c.cfg.Chunks {
				add(Choice{Sched: s, Chunk: ch, Workers: cur.Workers})
			}
		}
	}
	if syncBound {
		// Too little work per sync event (Table 1 fail): coarser chunks,
		// the no-per-chunk-cost static deal, and one plateau down.
		for i := len(c.cfg.Chunks) - 1; i >= 0; i-- {
			add(Choice{Sched: cur.Sched, Chunk: c.cfg.Chunks[i], Workers: cur.Workers})
		}
		if hasSched(parloop.Static) {
			add(Choice{Sched: parloop.Static, Chunk: cur.Chunk, Workers: cur.Workers})
		}
		if lower := sched.NextLowerPlateau(c.cfg.M, cur.Workers); lower >= 1 {
			add(Choice{Sched: cur.Sched, Chunk: cur.Chunk, Workers: lower})
		}
	}
	if !imbalanced && !syncBound {
		// Healthy loop: try the next plateau up (more speedup if the
		// stair allows it) and the cheapest schedule.
		for _, p := range plats {
			if p > cur.Workers {
				add(Choice{Sched: cur.Sched, Chunk: cur.Chunk, Workers: p})
				break
			}
		}
		if hasSched(parloop.Static) {
			add(Choice{Sched: parloop.Static, Chunk: cur.Chunk, Workers: cur.Workers})
		}
	}
	// Systematic fill: everything not yet tried, current workers first
	// so schedule/chunk structure is settled before the worker axis.
	for _, w := range []int{cur.Workers} {
		for _, s := range c.cfg.Schedules {
			for _, ch := range c.cfg.Chunks {
				add(Choice{Sched: s, Chunk: ch, Workers: w})
			}
		}
	}
	for _, w := range plats {
		for _, s := range c.cfg.Schedules {
			for _, ch := range c.cfg.Chunks {
				add(Choice{Sched: s, Chunk: ch, Workers: w})
			}
		}
	}
	if len(out) > maxProbes {
		out = out[:maxProbes]
	}
	return out
}

// winImbAvg returns the most recent completed window's averaged
// verdict, which diagnosis reads its symptoms from.
func (c *Controller) winImbAvg() Verdict { return c.lastAvg }

// record appends a decision to the bounded history. Called with the
// lock held.
func (c *Controller) record(d Decision) {
	if d.Action == ActionHold && len(c.history) > 0 {
		// Converged steady-state holds would swamp the log; keep only
		// state-changing decisions after the first.
		last := c.history[len(c.history)-1]
		if last.Action == ActionHold || last.Action == ActionConverged {
			return
		}
	}
	c.history = append(c.history, d)
	if len(c.history) > maxHistory {
		c.history = c.history[len(c.history)-maxHistory:]
	}
}

// Status is a point-in-time snapshot of the controller for status
// endpoints and reports.
type Status struct {
	Label      string     `json:"label"`
	Step       int        `json:"step"`
	Choice     Choice     `json:"choice"`
	BaselineNs float64    `json:"baseline_ns"`
	Converged  bool       `json:"converged"`
	Explored   int        `json:"explored"`
	Rejected   int        `json:"rejected"`
	Decisions  []Decision `json:"decisions"`
}

// Status snapshots the controller.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	hist := make([]Decision, len(c.history))
	copy(hist, c.history)
	return Status{
		Label:      c.label,
		Step:       c.step,
		Choice:     c.active,
		BaselineNs: c.score,
		Converged:  c.converged,
		Explored:   len(c.visited),
		Rejected:   len(c.rejected),
		Decisions:  hist,
	}
}
