// Package chaos is a seeded fault injector and workload generator for
// the scheduler stack. It turns the paper's safety claim — loop-level
// parallelization must not change program behavior — into a testable
// obligation for the serving layer: whatever faults a job suffers
// (worker panics mid-region, hangs past its deadline, slow indexes
// stalling a loop, floods of submissions), the scheduler's invariants
// must hold: the processor budget is conserved, every grant sits on a
// stair-step plateau, no job is lost or finished twice, and drain
// still terminates.
//
// Everything is deterministic from a seed: the same seed produces the
// same job mix with the same injected faults, and — run on a
// simclock.Virtual — the same terminal state for every job, so a soak
// failure reproduces exactly.
package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/parloop"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// Kind enumerates the injectable fault kinds.
type Kind int

const (
	// KindNone: a healthy job.
	KindNone Kind = iota
	// KindPanicWorker: one worker panics inside a parallel region at
	// the chosen step, with teammates committed to a barrier — the
	// worst case for fork-join bookkeeping.
	KindPanicWorker
	// KindJobError: Run returns an error at the chosen step.
	KindJobError
	// KindHang: the job stops making progress at the chosen step and
	// blocks until canceled — only a run deadline gets rid of it.
	KindHang
	// KindStall: one index of one loop takes a long (virtual) time,
	// holding the region open until the clock advances — the
	// slow-worker case the stair-step model says hurts the most.
	KindStall
	// KindRace: the job runs a loop-carried recurrence parallelized as
	// if it were independent — the C$doacross misuse the paper warns
	// against. The accesses go through a lock-synchronized Mem, so the
	// process stays memory-safe and the runtime race detector stays
	// quiet; the job completes (StateDone) with possibly wrong
	// numerics. Pointing internal/check's dependence Tracker at the
	// same RacyStep flags the dependence on every execution — the soak
	// proves the scheduler happily runs such jobs, and the checker is
	// the tool that finds them.
	KindRace
	// KindNodeLoss: a cluster worker dies mid-solve — every call to it
	// fails from the chosen lockstep step on. The sharded-solve engine
	// must fail over: re-plan onto the survivors, roll back to the
	// checkpoint and reproduce the residual history bitwise.
	KindNodeLoss
	// KindSlowLink: one worker's transport gains a fixed (virtual)
	// latency for the whole solve. Lockstep makes every step as slow
	// as its slowest shard — the cluster-scale version of the stall —
	// but the numbers must not change.
	KindSlowLink
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	names := [...]string{
		"none", "panic-worker", "job-error", "hang", "stall", "race", "node-loss", "slow-link",
	}
	if k >= 0 && int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Fault is one planned fault: what goes wrong, at which step of the
// job, and (for in-region faults) at which iteration index.
type Fault struct {
	Kind  Kind
	Step  int // time step at which the fault fires
	Index int // loop index for panic/stall faults
}

// Profile sets the per-job probability of each fault kind; the
// remainder of the probability mass is healthy jobs. The sum must not
// exceed 1.
type Profile struct {
	PanicWorker float64
	JobError    float64
	Hang        float64
	Stall       float64
	Race        float64
}

// FaultFraction returns the total probability of any fault.
func (p Profile) FaultFraction() float64 {
	return p.PanicWorker + p.JobError + p.Hang + p.Stall + p.Race
}

func (p Profile) validate() {
	for _, v := range []float64{p.PanicWorker, p.JobError, p.Hang, p.Stall, p.Race} {
		if v < 0 {
			panic(fmt.Sprintf("chaos: negative fault probability in %+v", p))
		}
	}
	if p.FaultFraction() > 1 {
		panic(fmt.Sprintf("chaos: fault probabilities sum past 1 in %+v", p))
	}
}

// Injector deals faults from a seeded stream according to a Profile.
// Two injectors with the same seed and profile deal identical
// sequences.
type Injector struct {
	rng *rand.Rand
	p   Profile
}

// NewInjector creates a seeded injector.
func NewInjector(seed int64, p Profile) *Injector {
	p.validate()
	return &Injector{rng: rand.New(rand.NewSource(seed)), p: p}
}

// Next deals the fault plan for the next job, which will run the given
// number of steps.
func (in *Injector) Next(steps int) Fault {
	if steps < 1 {
		steps = 1
	}
	u := in.rng.Float64()
	step := in.rng.Intn(steps)
	idx := in.rng.Intn(1 << 16)
	switch {
	case u < in.p.PanicWorker:
		return Fault{Kind: KindPanicWorker, Step: step, Index: idx}
	case u < in.p.PanicWorker+in.p.JobError:
		return Fault{Kind: KindJobError, Step: step, Index: idx}
	case u < in.p.PanicWorker+in.p.JobError+in.p.Hang:
		return Fault{Kind: KindHang, Step: step, Index: idx}
	case u < in.p.PanicWorker+in.p.JobError+in.p.Hang+in.p.Stall:
		return Fault{Kind: KindStall, Step: step, Index: idx}
	case u < in.p.FaultFraction():
		return Fault{Kind: KindRace, Step: step, Index: idx}
	default:
		return Fault{Kind: KindNone}
	}
}

// Spec describes one generated job: its shape plus its planned fault.
type Spec struct {
	Name  string
	M     int // loop-level parallelism
	Steps int
	Fault Fault
}

// ExpectedState returns the terminal state this spec must reach when
// run with a deadline on a virtual clock: the fault kind alone decides
// the outcome, which is what makes soak assertions deterministic.
func (s Spec) ExpectedState() sched.State {
	switch s.Fault.Kind {
	case KindPanicWorker, KindJobError:
		return sched.StateFailed
	case KindHang:
		return sched.StateTimedOut
	default:
		// KindNone, KindStall and KindRace all complete: a stall is
		// only slow, and a seeded race corrupts numerics, not control
		// flow — the scheduler cannot tell such a job from a healthy
		// one, which is exactly why the dependence checker exists.
		return sched.StateDone
	}
}

// GenConfig shapes the workload a Generator deals.
type GenConfig struct {
	// MaxM bounds job parallelism (1..MaxM). <= 0 defaults to 24.
	MaxM int
	// MaxSteps bounds time steps per job (1..MaxSteps). <= 0
	// defaults to 4.
	MaxSteps int
	// Profile is the fault mix.
	Profile Profile
	// Stall is the virtual duration of an injected stall. <= 0
	// defaults to 5s.
	Stall time.Duration
}

func (c GenConfig) withDefaults() GenConfig {
	if c.MaxM <= 0 {
		c.MaxM = 24
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 4
	}
	if c.Stall <= 0 {
		c.Stall = 5 * time.Second
	}
	return c
}

// Generator deals a deterministic stream of job Specs.
type Generator struct {
	cfg GenConfig
	rng *rand.Rand
	inj *Injector
	n   int
}

// NewGenerator creates a seeded generator. The same seed and config
// yield the same Spec sequence.
func NewGenerator(seed int64, cfg GenConfig) *Generator {
	cfg = cfg.withDefaults()
	return &Generator{
		cfg: cfg,
		rng: rand.New(rand.NewSource(seed)),
		inj: NewInjector(seed^0x5851f42d4c957f2d, cfg.Profile),
	}
}

// Next deals the next job spec.
func (g *Generator) Next() Spec {
	g.n++
	m := 1 + g.rng.Intn(g.cfg.MaxM)
	steps := 1 + g.rng.Intn(g.cfg.MaxSteps)
	f := g.inj.Next(steps)
	return Spec{
		Name:  fmt.Sprintf("chaos-%d-%s", g.n, f.Kind),
		M:     m,
		Steps: steps,
		Fault: f,
	}
}

// Job builds the schedulable job for a spec. The clock is used by
// stall faults; healthy steps run one tiny parallel region each, and
// every step checkpoints first so resizes and cancellation land.
func (s Spec) Job(clk simclock.Clock, stall time.Duration) sched.Job {
	if clk == nil {
		clk = simclock.Real{}
	}
	if stall <= 0 {
		stall = 5 * time.Second
	}
	return &job{spec: s, clk: clk, stall: stall}
}

// job executes a Spec on the granted team.
type job struct {
	spec  Spec
	clk   simclock.Clock
	stall time.Duration
}

// Name implements sched.Job.
func (j *job) Name() string { return j.spec.Name }

// Parallelism implements sched.Job.
func (j *job) Parallelism() int { return j.spec.M }

// Run implements sched.Job: Steps checkpointed time steps, with the
// planned fault fired at its step.
func (j *job) Run(g *sched.Grant) error {
	for step := 0; step < j.spec.Steps; step++ {
		if err := g.Checkpoint(); err != nil {
			return err
		}
		f := j.spec.Fault
		if f.Kind != KindNone && f.Step == step {
			if err := j.fire(g); err != nil {
				return err
			}
			continue
		}
		// Healthy step: one fork-join region of trivial work.
		g.Team().ForChunked(j.spec.M, func(lo, hi int) {
			x := 1.0
			for i := lo; i < hi; i++ {
				x += 1 / x
			}
			if x < 0 {
				panic("unreachable")
			}
		})
	}
	return nil
}

// fire executes the planned fault.
func (j *job) fire(g *sched.Grant) error {
	f := j.spec.Fault
	switch f.Kind {
	case KindPanicWorker:
		// One worker dies mid-region while its teammates commit to a
		// barrier: the panic must break the barrier (no deadlocked
		// teammates) and unwind through Run as a *parloop.PanicError,
		// which the scheduler converts into a job failure.
		g.Team().Region(func(ctx *parloop.WorkerCtx) {
			if ctx.ID() == f.Index%ctx.Workers() {
				panic(fmt.Sprintf("chaos: injected worker panic at step %d", f.Step))
			}
			ctx.Barrier()
		})
		return nil // unreachable: the region panics
	case KindJobError:
		return fmt.Errorf("chaos: injected error at step %d", f.Step)
	case KindHang:
		<-g.Context().Done()
		return g.Checkpoint()
	case KindStall:
		target := f.Index % j.spec.M
		g.Team().ForChunked(j.spec.M, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if i == target {
					j.clk.Sleep(j.stall)
				}
			}
		})
		return nil
	case KindRace:
		// Run the seeded recurrence on synchronized memory: the step
		// completes and the job reaches StateDone, numerics be damned.
		n := 64 + f.Index%64
		RacyStep(g.Team(), NewSyncMem(n), n)
		return nil
	default:
		return nil
	}
}

// Mem is element-addressed float64 storage whose accesses name the
// worker performing them. chaos uses it to run seeded-race steps on
// either plain synchronized memory (SyncMem, in soaks) or a
// dependence-instrumented array (internal/check's TrackedF64
// implements Mem), where the checker flags the loop-carried dependence.
type Mem interface {
	Load(worker, i int) float64
	Store(worker, i int, v float64)
}

// SyncMem is mutex-synchronized float64 storage: the cheapest Mem that
// keeps a logically racy loop free of Go-level data races, so soaks
// run clean under the runtime race detector while still exercising the
// wrong parallelization.
type SyncMem struct {
	mu   sync.Mutex
	data []float64
}

// NewSyncMem allocates zeroed synchronized storage of length n.
func NewSyncMem(n int) *SyncMem {
	return &SyncMem{data: make([]float64, n)}
}

// Load implements Mem.
func (m *SyncMem) Load(_, i int) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.data[i]
}

// Store implements Mem.
func (m *SyncMem) Store(_, i int, v float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data[i] = v
}

// Data returns a snapshot of the stored values.
func (m *SyncMem) Data() []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]float64(nil), m.data...)
}

// RacyStep runs one step of the seeded fault's loop: the prefix
// recurrence a[i] = a[i-1] + 1 statically partitioned across the team
// as if iterations were independent. On one worker the result is
// a[i] = i+1; on several, workers read predecessors another worker
// owns without a barrier between them — the loop-carried dependence
// internal/check's Tracker flags when m is a tracked array.
func RacyStep(t *parloop.Team, m Mem, n int) {
	t.Region(func(ctx *parloop.WorkerCtx) {
		w := ctx.ID()
		lo, hi := ctx.Range(n)
		for i := lo; i < hi; i++ {
			v := 1.0
			if i > 0 {
				v += m.Load(w, i-1)
			}
			m.Store(w, i, v)
		}
	})
}
