package sched

import (
	"fmt"

	"repro/internal/model"
)

// funcJob adapts a closure to the Job interface.
type funcJob struct {
	name string
	m    int
	fn   func(g *Grant) error
}

// NewFuncJob wraps fn as a Job with the given name and parallelism.
// It is the lightweight adapter for tests, examples and ad-hoc work.
func NewFuncJob(name string, parallelism int, fn func(g *Grant) error) Job {
	return &funcJob{name: name, m: parallelism, fn: fn}
}

func (j *funcJob) Name() string     { return j.name }
func (j *funcJob) Parallelism() int { return j.m }
func (j *funcJob) Run(g *Grant) error {
	return j.fn(g)
}

// SyntheticJob executes a model.StepProfile as real CPU work: each
// time step runs the profile's parallel loop classes on the granted
// team (one fork-join region per sync event, iteration counts equal to
// the class's parallelism) and burns the serial residue on the job
// goroutine. It turns the paper's closed-form workload descriptions
// into schedulable jobs, so scheduler experiments can replay Table 2
// shapes without a full solver.
type SyntheticJob struct {
	name    string
	profile model.StepProfile
	steps   int
	// workScale converts profile cycles into spin-loop iterations;
	// keep it small in tests.
	workScale float64
}

// NewSyntheticJob builds a synthetic job running steps time steps of
// the profile. workScale scales profile cycles to spin iterations
// (1.0 ≈ one spin iteration per cycle); it must be > 0.
func NewSyntheticJob(name string, p model.StepProfile, steps int, workScale float64) *SyntheticJob {
	if steps < 1 {
		panic(fmt.Sprintf("sched: NewSyntheticJob steps must be >= 1, got %d", steps))
	}
	if workScale <= 0 {
		panic(fmt.Sprintf("sched: NewSyntheticJob workScale must be > 0, got %g", workScale))
	}
	return &SyntheticJob{name: name, profile: p, steps: steps, workScale: workScale}
}

// Name implements Job.
func (j *SyntheticJob) Name() string { return j.name }

// Parallelism implements Job: the profile's MaxParallelism, the largest
// parallelism among the classes whose work per region pays for a fork
// (1 when none does).
func (j *SyntheticJob) Parallelism() int { return j.profile.MaxParallelism() }

// Run implements Job: steps × (parallel loop classes + serial work),
// checkpointing once per step.
func (j *SyntheticJob) Run(g *Grant) error {
	for s := 0; s < j.steps; s++ {
		if err := g.Checkpoint(); err != nil {
			return err
		}
		team := g.Team()
		for _, l := range j.profile.Loops {
			if l.Parallelism < 2 {
				spin(j.iters(l.WorkCycles))
				continue
			}
			regions := l.SyncEvents
			if regions < 1 {
				regions = 1
			}
			// Each region spins its share of one unit's work.
			n := j.iters(l.WorkCycles/float64(l.Parallelism)) / regions
			for r := 0; r < regions; r++ {
				team.ForChunked(l.Parallelism, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						spin(n)
					}
				})
			}
		}
		spin(j.iters(j.profile.SerialCycles))
	}
	return nil
}

func (j *SyntheticJob) iters(cycles float64) int {
	n := int(cycles * j.workScale)
	if n < 1 {
		n = 1
	}
	return n
}

// spin burns roughly n dependent floating-point operations. The result
// feeds a branch the compiler cannot fold away.
func spin(n int) {
	x := 1.0
	for i := 0; i < n; i++ {
		x += 1 / x
	}
	if x < 0 {
		panic("sched: spin underflow (unreachable)")
	}
}
