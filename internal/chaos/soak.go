package chaos

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// SoakConfig parameterizes a deterministic chaos soak: a seeded
// workload of faulty jobs flooded through a scheduler on a virtual
// clock.
type SoakConfig struct {
	// Seed drives the workload generator and fault injector.
	Seed int64
	// Jobs is how many jobs to push through. <= 0 defaults to 200.
	Jobs int
	// Procs is the processor budget. <= 0 defaults to 8.
	Procs int
	// QueueDepth bounds the admission queue; keep it well under Jobs
	// so submission floods exercise backpressure. <= 0 defaults to 16.
	QueueDepth int
	// Gen shapes the job mix.
	Gen GenConfig
	// HangTimeout is the run deadline given to jobs with an injected
	// hang — the only way they terminate. <= 0 defaults to 30s.
	HangTimeout time.Duration
	// SafeTimeout is the run deadline given to every other job. It
	// must be far beyond any virtual time the driver can plausibly
	// advance, so healthy jobs never spuriously time out; the driver
	// enforces this by refusing to advance past SafeTimeout/2 total.
	// <= 0 defaults to 12h.
	SafeTimeout time.Duration
}

func (c SoakConfig) withDefaults() SoakConfig {
	if c.Jobs <= 0 {
		c.Jobs = 200
	}
	if c.Procs <= 0 {
		c.Procs = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.HangTimeout <= 0 {
		c.HangTimeout = 30 * time.Second
	}
	if c.SafeTimeout <= 0 {
		c.SafeTimeout = 12 * time.Hour
	}
	return c
}

// SoakResult reports what a soak run did.
type SoakResult struct {
	// Submitted is the number of jobs admitted (== SoakConfig.Jobs on
	// success; every job is retried until admitted).
	Submitted int
	// Faulted is how many jobs carried an injected fault.
	Faulted int
	// FloodRejections counts ErrQueueFull rejections absorbed while
	// flooding the queue — evidence the backpressure path ran.
	FloodRejections int
	// ByKind counts jobs per injected fault kind.
	ByKind map[Kind]int
	// ByState counts terminal states over all jobs.
	ByState map[sched.State]int
	// VirtualElapsed is total virtual time advanced by the driver.
	VirtualElapsed time.Duration
	// Metrics is the scheduler's final accounting snapshot.
	Metrics sched.Metrics
}

// Soak runs the configured workload to completion, checking the
// scheduler's safety invariants throughout:
//
//   - budget conservation: in_use + free == procs after every event;
//   - plateau-only grants: every running job's grant sits on a
//     stair-step plateau of its requested parallelism;
//   - deterministic outcomes: each job's terminal state matches its
//     fault plan (healthy/stall -> done, error/panic -> failed,
//     hang -> timed-out);
//   - no lost or double-counted jobs: terminal counts reconcile
//     exactly with scheduler metrics;
//   - drain termination: the scheduler closes cleanly afterwards.
//
// The driver advances the virtual clock only when the workload stops
// making progress on its own (advance-if-stuck), so CPU-bound healthy
// jobs are never at the mercy of wall-clock scheduling jitter.
func Soak(cfg SoakConfig) (*SoakResult, error) {
	cfg = cfg.withDefaults()
	start := time.Unix(0, 0)
	clk := simclock.NewVirtual(start)
	s := sched.New(sched.Config{
		Procs:      cfg.Procs,
		QueueDepth: cfg.QueueDepth,
		Clock:      clk,
	})
	defer s.Close()

	gen := NewGenerator(cfg.Seed, cfg.Gen)
	res := &SoakResult{
		ByKind:  make(map[Kind]int),
		ByState: make(map[sched.State]int),
	}

	type entry struct {
		spec Spec
		h    *sched.Handle
	}
	entries := make([]entry, 0, cfg.Jobs)

	checkInvariants := func() error {
		m := s.Metrics()
		if m.InUse+m.Free != m.Procs {
			return fmt.Errorf("budget leak: in_use %d + free %d != procs %d", m.InUse, m.Free, m.Procs)
		}
		if m.MaxInUse > m.Procs {
			return fmt.Errorf("budget exceeded: max_in_use %d > procs %d", m.MaxInUse, m.Procs)
		}
		for _, e := range entries {
			st := e.h.Status()
			if st.State != sched.StateRunning {
				continue
			}
			on := false
			for _, p := range model.PlateauProcs(st.Requested, st.Requested) {
				if st.Granted == p {
					on = true
					break
				}
			}
			if !on {
				return fmt.Errorf("job %d (%s) granted %d, off every plateau of m=%d",
					st.ID, e.spec.Name, st.Granted, st.Requested)
			}
		}
		return nil
	}

	terminalCount := func() int {
		n := 0
		for _, e := range entries {
			if e.h.Status().State.Terminal() {
				n++
			}
		}
		return n
	}

	// advanceIfStuck waits for cond, letting real goroutines run; if no
	// terminal-count progress shows up for a while, it advances the
	// virtual clock one quantum so sleeping stalls and deadline
	// watchers fire. Total advancement is capped well under
	// SafeTimeout, which is what guarantees healthy jobs cannot time
	// out no matter how the race scheduler interleaves things.
	quantum := cfg.HangTimeout / 4
	if q := cfg.Gen.withDefaults().Stall; q < quantum && q > 0 {
		quantum = q
	}
	horizon := cfg.SafeTimeout / 2
	advanceIfStuck := func(cond func() bool) error {
		wall := time.Now().Add(2 * time.Minute)
		lastTerm := terminalCount()
		idle := 0
		for !cond() {
			if time.Now().After(wall) {
				return errors.New("soak wedged: no progress against the wall clock")
			}
			time.Sleep(100 * time.Microsecond)
			if n := terminalCount(); n > lastTerm {
				lastTerm, idle = n, 0
				continue
			}
			idle++
			if idle < 20 {
				continue
			}
			idle = 0
			if clk.Now().Sub(start) > horizon {
				return fmt.Errorf("soak advanced past the %v safety horizon; outcomes would stop being deterministic", horizon)
			}
			clk.Advance(quantum)
		}
		return nil
	}

	for i := 0; i < cfg.Jobs; i++ {
		spec := gen.Next()
		res.ByKind[spec.Fault.Kind]++
		if spec.Fault.Kind != KindNone {
			res.Faulted++
		}
		timeout := cfg.SafeTimeout
		if spec.Fault.Kind == KindHang {
			timeout = cfg.HangTimeout
		}
		job := spec.Job(clk, cfg.Gen.withDefaults().Stall)
		for {
			h, err := s.SubmitWithOptions(job, sched.SubmitOptions{Timeout: timeout})
			if err == nil {
				entries = append(entries, entry{spec, h})
				res.Submitted++
				break
			}
			if !errors.Is(err, sched.ErrQueueFull) {
				return res, fmt.Errorf("submit %s: %w", spec.Name, err)
			}
			// Queue flooded: absorb the rejection, let the backlog
			// drain (advancing virtual time if it takes faults to
			// clear), and retry so no job is ever dropped.
			res.FloodRejections++
			queued := s.Metrics().Queued
			if err := advanceIfStuck(func() bool { return s.Metrics().Queued < queued }); err != nil {
				return res, err
			}
		}
		if err := checkInvariants(); err != nil {
			return res, err
		}
	}

	// Drain: everything submitted must reach a terminal state.
	if err := advanceIfStuck(func() bool { return terminalCount() == len(entries) }); err != nil {
		return res, err
	}

	// Every job lands exactly on the terminal state its fault plan
	// dictates — that is the determinism claim.
	for _, e := range entries {
		st := e.h.Status()
		res.ByState[st.State]++
		if want := e.spec.ExpectedState(); st.State != want {
			return res, fmt.Errorf("job %s: terminal state %v, want %v (fault %v)",
				e.spec.Name, st.State, want, e.spec.Fault.Kind)
		}
		if err := checkInvariants(); err != nil {
			return res, err
		}
	}

	// Reconcile with scheduler accounting: nothing lost, nothing
	// double-counted.
	m := s.Metrics()
	res.Metrics = m
	res.VirtualElapsed = clk.Now().Sub(start)
	total := m.Completed + m.Failed + m.TimedOut + m.Canceled
	if int(total) != len(entries) {
		return res, fmt.Errorf("accounting mismatch: %d terminal in metrics, %d jobs submitted", total, len(entries))
	}
	if int(m.Completed) != res.ByState[sched.StateDone] ||
		int(m.Failed) != res.ByState[sched.StateFailed] ||
		int(m.TimedOut) != res.ByState[sched.StateTimedOut] ||
		int(m.Canceled) != res.ByState[sched.StateCanceled] {
		return res, fmt.Errorf("per-state accounting mismatch: metrics %+v vs observed %v", m, res.ByState)
	}
	if m.InUse != 0 || m.Running != 0 || m.Queued != 0 {
		return res, fmt.Errorf("scheduler not idle after drain: %+v", m)
	}

	// Drain termination: Close must return promptly with nothing left
	// behind (it blocks on every job goroutine).
	s.Close()
	return res, nil
}
