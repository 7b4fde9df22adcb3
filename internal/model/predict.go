package model

import "fmt"

// LoopClass describes one parallelized loop nest (or one family of
// identical nests executed repeatedly) within a time step, in the terms
// the paper uses to reason about scaling: how much work it holds, how
// much loop-level parallelism is available, and how many synchronization
// events it costs per time step.
type LoopClass struct {
	Name string
	// WorkCycles is the single-processor work per time step contained in
	// all executions of this loop class, in cycles.
	WorkCycles float64
	// Parallelism is the number of units of loop-level parallelism
	// (typically the iteration count of the parallelized outer loop).
	// Zero or negative means the loop is serial.
	Parallelism int
	// SyncEvents is the number of parallel regions this class opens per
	// time step (each costs one synchronization on exit).
	SyncEvents int
}

// StepProfile is the per-time-step execution profile of a program: the
// parallelized loop classes plus residual serial work (boundary
// conditions and other unparallelized routines). It is the input to the
// paper-style performance prediction and to the SMP simulator.
type StepProfile struct {
	Loops []LoopClass
	// SerialCycles is the single-processor work per step that is never
	// parallelized.
	SerialCycles float64
}

// TotalCycles returns the single-processor work per time step.
func (sp *StepProfile) TotalCycles() float64 {
	t := sp.SerialCycles
	for _, l := range sp.Loops {
		t += l.WorkCycles
	}
	return t
}

// SyncEventsPerStep returns the total number of synchronization events
// per time step across all parallel loop classes.
func (sp *StepProfile) SyncEventsPerStep() int {
	n := 0
	for _, l := range sp.Loops {
		n += l.SyncEvents
	}
	return n
}

// The host's two synchronization costs, each measured as a served job
// pays it (DESIGN §12). One number cannot stand for both: a team start
// costs about 9× a region on a running team.
const (
	// ForkCycles prices a job's team start and first wake, in profile
	// units (an f3d flop is one cycle): half the one-step served
	// break-even on a 2-core x86-64 host, where a second processor
	// starts paying between 214 718 and 315 504 flops in the largest
	// region (BenchmarkOneStepBreakEven). Any value in
	// (107 359, 464 805] gives every benchmark job class the same
	// two-processor grant.
	ForkCycles = 150_000
	// RegionNs prices one region on a team whose helpers are running,
	// in nanoseconds: a two-worker region busy for S takes S + 1.7–3.7 µs
	// on the same host (BenchmarkHelperLag, region − S).
	RegionNs = 2_500
)

// forkBar is the work per region that pays for a team start on two
// processors: Table 1 read at break-even.
var forkBar = MinWorkPerLoop(2, ForkCycles, 1)

// MaxParallelism returns the M a scheduler plans the step's grants on:
// the largest parallelism among the loop classes whose work W per region
// pays for a team start on two processors (forkBar ≤ W), or 1 when none
// does.
func (sp *StepProfile) MaxParallelism() int {
	m := 1
	for _, l := range sp.Loops {
		if l.Parallelism > m && l.WorkCycles/float64(max(l.SyncEvents, 1)) >= forkBar {
			m = l.Parallelism
		}
	}
	return m
}

// Scale returns a copy of the profile with all work quantities (loop
// work and serial work) multiplied by factor. Synchronization event
// counts and parallelism are structural and do not scale with problem
// size within a zone, so they are preserved. Scaling work is how the
// paper's 1-M-point profile extends to larger zones of the same shape.
func (sp *StepProfile) Scale(factor float64) StepProfile {
	if factor <= 0 {
		panic(fmt.Sprintf("model: StepProfile.Scale factor must be > 0, got %g", factor))
	}
	out := StepProfile{
		Loops:        make([]LoopClass, len(sp.Loops)),
		SerialCycles: sp.SerialCycles * factor,
	}
	for i, l := range sp.Loops {
		l.WorkCycles *= factor
		out.Loops[i] = l
	}
	return out
}

// PredictStepCycles returns the predicted wall-clock cycles for one time
// step of the profile on procs processors with the given per-region
// synchronization cost (in cycles). The model composes the three effects
// the paper analyzes:
//
//   - stair-step parallel time: each loop class with parallelism N is
//     dealt Static over P workers (parloop.StaticRange), so its busiest
//     worker runs Work·ceil(N/P)/N cycles (Table 3 / Figure 1);
//   - synchronization overhead: SyncEvents·syncCost cycles per step
//     (Table 1);
//   - Amdahl: SerialCycles are paid at full cost (§3).
//
// Loops whose Parallelism is < 2 are treated as serial.
func (sp *StepProfile) PredictStepCycles(procs int, syncCost float64) float64 {
	if procs < 1 {
		panic(fmt.Sprintf("model: PredictStepCycles procs must be >= 1, got %d", procs))
	}
	if syncCost < 0 {
		panic(fmt.Sprintf("model: PredictStepCycles syncCost must be >= 0, got %g", syncCost))
	}
	t := sp.SerialCycles
	for _, l := range sp.Loops {
		if l.Parallelism < 2 || procs == 1 {
			t += l.WorkCycles
			if procs > 1 && l.Parallelism >= 2 {
				// A parallel region is still opened even when it holds a
				// degenerate loop; on one processor no region is opened.
				t += float64(l.SyncEvents) * syncCost
			}
			continue
		}
		n := l.Parallelism
		t += l.WorkCycles * float64(MaxUnitsPerProcessor(n, procs)) / float64(n)
		t += float64(l.SyncEvents) * syncCost
	}
	return t
}

// PredictSpeedup returns the predicted whole-step speedup on procs
// processors relative to one processor.
func (sp *StepProfile) PredictSpeedup(procs int, syncCost float64) float64 {
	return sp.PredictStepCycles(1, syncCost) / sp.PredictStepCycles(procs, syncCost)
}
