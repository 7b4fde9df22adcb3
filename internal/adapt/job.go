package adapt

import (
	"fmt"

	"repro/internal/parloop"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// LoopJob is a schedulable adaptive workload: a ragged-cost parallel
// loop stepped under the feedback controller. Each step it reads the
// controller's current {schedule, chunk, workers} pick, resizes its own
// team to the worker pick capped by the scheduler's current grant, runs
// the loop as real spin work under the picked schedule/chunk
// (parloop.ForSchedW), and feeds the measured verdict back.
type LoopJob struct {
	name  string
	n     int
	steps int
	costs []int // per-iteration spin counts (seeded ragged surface)
	ctrl  *Controller
	clock simclock.Clock
}

// NewLoopJob builds an adaptive job: n ragged-cost iterations per
// step, steps steps, spin cost ~workScale per unit. procs is the
// controller's worker ceiling (the daemon's budget). The cost surface
// and the controller's exploration are both deterministic in seed.
func NewLoopJob(name string, n, steps int, workScale float64, seed int64, procs int, clock simclock.Clock) (*LoopJob, error) {
	if n < 1 {
		return nil, fmt.Errorf("adapt: LoopJob needs n >= 1, got %d", n)
	}
	if steps < 1 {
		return nil, fmt.Errorf("adapt: LoopJob needs steps >= 1, got %d", steps)
	}
	if workScale <= 0 {
		return nil, fmt.Errorf("adapt: LoopJob needs workScale > 0, got %g", workScale)
	}
	if procs < 1 {
		return nil, fmt.Errorf("adapt: LoopJob needs procs >= 1, got %d", procs)
	}
	if clock == nil {
		clock = simclock.Real{}
	}
	w := Ragged(n, workScale, 3, seed)
	costs := make([]int, n)
	for i := range costs {
		costs[i] = int(w.Cost(0, i))
	}
	// Start from the schedule the paper would pick statically (Static,
	// full grant) so the decision log shows the controller earning its
	// keep.
	ctrl := New(name, Choice{Sched: parloop.Static, Chunk: 1, Workers: procs},
		Config{Procs: procs, M: n})
	return &LoopJob{name: name, n: n, steps: steps, costs: costs, ctrl: ctrl, clock: clock}, nil
}

// Controller exposes the job's controller for status endpoints: f3dd
// reaches the job through the scheduler's table and serves
// Controller().Status() as GET /jobs/{id}/adapt.
func (j *LoopJob) Controller() *Controller { return j.ctrl }

// JobAdapt is the wire shape of GET /jobs/{id}/adapt: the job's
// identity plus every instrumented loop's controller status. tracetool
// renders it as a decision-log table (tracetool adapt).
type JobAdapt struct {
	ID    uint64   `json:"id"`
	Name  string   `json:"name,omitempty"`
	State string   `json:"state,omitempty"`
	Loops []Status `json:"loops"`
}

// Name implements sched.Job.
func (j *LoopJob) Name() string { return j.name }

// Parallelism implements sched.Job.
func (j *LoopJob) Parallelism() int { return j.n }

// Run implements sched.Job.
func (j *LoopJob) Run(g *sched.Grant) error {
	// The job runs on its own team so the controller's worker picks
	// can be applied with Team.Resize without fighting the scheduler
	// over the grant team; the grant is honored as a hard cap,
	// re-read at every checkpoint.
	team := parloop.NewTeam(min(j.ctrl.Choice().Workers, g.Procs()))
	defer team.Close()

	busy := make([]int64, j.ctrl.cfg.Procs)
	for s := 0; s < j.steps; s++ {
		if err := g.Checkpoint(); err != nil {
			return err
		}
		ch := j.ctrl.Choice()
		w := min(ch.Workers, g.Procs())
		if w < 1 {
			w = 1
		}
		if team.Workers() != w {
			team.Resize(w)
		}
		for i := range busy {
			busy[i] = 0
		}
		start := j.clock.Now()
		team.ForSchedW(j.n, ch.Sched, ch.Chunk, func(worker, lo, hi int) {
			c := 0
			for i := lo; i < hi; i++ {
				c += j.costs[i]
				sched.Spin(j.costs[i])
			}
			busy[worker] += int64(c)
		})
		wall := j.clock.Now().Sub(start).Nanoseconds()
		j.ctrl.Observe(measuredVerdict(wall, busy[:w]))
	}
	return nil
}

// measuredVerdict distills a real step's measurements: wall time from
// the clock and imbalance from per-worker busy counters (in work units —
// the fraction is dimensionless so the unit cancels).
func measuredVerdict(wallNs int64, busy []int64) Verdict {
	var total, max int64
	for _, b := range busy {
		total += b
		if b > max {
			max = b
		}
	}
	p := int64(len(busy))
	v := Verdict{WallNs: wallNs, BudgetPass: true}
	if max > 0 && wallNs > 0 {
		v.ImbalanceFrac = float64(p*max-total) / float64(p*max)
	}
	return v
}

// ScriptChoices runs a real controller against a seeded ragged
// simulated workload and returns the choice applied at each of steps
// steps — a deterministic per-step decision script. The conformance
// harness replays these scripts inside kernels (internal/check's
// adaptive cells): the decisions come from the genuine controller
// policy, but being pure simulation they are reproducible bit for bit.
func ScriptChoices(seed int64, cfg Config, steps int) []Choice {
	full := cfg.withDefaults()
	start := Choice{
		Sched:   full.Schedules[int(uint64(seed)%uint64(len(full.Schedules)))],
		Chunk:   full.Chunks[int(uint64(seed>>8)%uint64(len(full.Chunks)))],
		Workers: full.Procs,
	}
	ctrl := New("script", start, cfg)
	out := RunSim(Sim{W: Ragged(4*full.M, 900, 3, seed)}, ctrl, steps)
	return out.Choices
}
