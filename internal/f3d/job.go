package f3d

import (
	"fmt"
	"sync"

	"repro/internal/sched"
)

// Job adapts a CacheSolver run to the sched.Job interface so F3D steps
// can be space-shared with other work by the scheduler daemon. The
// solver runs on the granted team and checkpoints once per time step,
// which is where grant resizes (grow onto idle processors, shrink to
// admit) and cancellation take effect — between parallel regions, as
// parloop.Team.Resize requires.
type Job struct {
	name  string
	cfg   Config
	steps int
	pulse float64
	hook  func(step int) error
	final func(s Solver)

	mu   sync.Mutex
	hist History
}

// NewJob builds a scheduler job that advances a fresh solver for the
// given number of time steps from a freestream + pulse initial state
// (pulse 0 means uniform flow).
func NewJob(name string, cfg Config, steps int, pulse float64) (*Job, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if steps < 1 {
		return nil, fmt.Errorf("f3d: job needs steps >= 1, got %d", steps)
	}
	if err := ValidatePulse(pulse); err != nil {
		return nil, err
	}
	return &Job{name: name, cfg: cfg, steps: steps, pulse: pulse}, nil
}

// WithStepHook installs a callback invoked after each time step's
// checkpoint, before the solver advances. A non-nil return aborts the
// run with that error. Fault-injection harnesses use this to fail,
// hang or stall a real solver job at a chosen step; it must not be
// called once the job is submitted.
func (j *Job) WithStepHook(hook func(step int) error) *Job {
	j.hook = hook
	return j
}

// WithFinalHook installs a callback invoked on the job's goroutine
// after the last time step, before the solver is released. The
// conformance harness reads the final flow state through it, so the
// served path is checked on more than its residual history; it must not
// be called once the job is submitted.
func (j *Job) WithFinalHook(final func(s Solver)) *Job {
	j.final = final
	return j
}

// Name implements sched.Job.
func (j *Job) Name() string { return j.name }

// Parallelism implements sched.Job: the M the step's work pays for
// (model.StepProfile.MaxParallelism) — the units of the widest loop
// DefaultShape splits (K−2 rows or L−2 planes, never J) among those whose
// work per region pays for a fork; 1 when none does. The paper (§5) locates the useful processor
// plateaus at roughly M/5, M/4, M/3, M/2 and M — exactly the grant
// sizes the scheduler will consider.
func (j *Job) Parallelism() int {
	sp := StepProfileFor(j.cfg.Case, DefaultShape())
	return sp.MaxParallelism()
}

// Run implements sched.Job.
func (j *Job) Run(g *sched.Grant) error {
	s, err := NewCacheSolver(j.cfg, CacheOptions{Team: g.Team()})
	if err != nil {
		return err
	}
	defer s.Close()
	InitPulse(s, j.pulse) // pulse 0 is InitUniform
	for i := range j.steps {
		if err := g.Checkpoint(); err != nil {
			return err
		}
		if j.hook != nil {
			if err := j.hook(i); err != nil {
				return err
			}
		}
		st, err := TryStep(s)
		if err != nil {
			return fmt.Errorf("f3d: step %d: %w", i+1, err)
		}
		j.mu.Lock()
		j.hist.Residuals = append(j.hist.Residuals, st.Residual)
		j.hist.Flops += st.Flops
		j.mu.Unlock()
	}
	if j.final != nil {
		j.final(s)
	}
	return nil
}

// History returns a copy of the residual history recorded so far. It
// is safe to call while the job is running.
func (j *Job) History() History {
	j.mu.Lock()
	defer j.mu.Unlock()
	h := j.hist
	h.Residuals = append([]float64(nil), j.hist.Residuals...)
	return h
}
