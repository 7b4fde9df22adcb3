package adapt

import (
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/simclock"
)

// Workload is a synthetic loop with a scripted per-iteration cost
// surface. Cost(step, i) returns iteration i's cost in nanoseconds at
// time step `step`, so a workload can encode ragged tails (cost varies
// with i), drift (cost varies with step) and phase changes (cost
// switches families at a step). Everything is pure arithmetic: the
// same workload always produces the same verdicts, which is what lets
// the convergence battery assert exact outcomes.
type Workload struct {
	Name string
	N    int
	Cost func(step, i int) float64
}

// splitmix64 is a tiny deterministic hash, the cost-surface noise
// source (no math/rand: the sequence must be a pure function of the
// seed and index on every platform).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unitNoise returns a deterministic value in [0, 1) for (seed, i).
func unitNoise(seed int64, i int) float64 {
	return float64(splitmix64(uint64(seed)^uint64(i)*0x9e3779b97f4a7c15)>>11) / float64(1<<53)
}

// Ragged returns a stationary workload with per-iteration costs spread
// in [baseNs, baseNs*(1+skew)], a 10x heavy head covering the first
// n/8 indices (a boundary-layer-like cost cluster) and sparse 4x
// spikes — the shape where a one-shot static deal loses badly to
// on-demand dealing, because contiguous blocks concentrate the head on
// one worker.
func Ragged(n int, baseNs, skew float64, seed int64) Workload {
	head := n / 8
	return Workload{
		Name: "ragged",
		N:    n,
		Cost: func(_, i int) float64 {
			c := baseNs * (1 + skew*unitNoise(seed, i))
			if i < head {
				c *= 10
			}
			if i%31 == 7 {
				c *= 4
			}
			return c
		},
	}
}

// Triangular returns a stationary workload whose cost ramps linearly
// with the index — smooth variation, the static-cyclic sweet spot.
func Triangular(n int, baseNs float64) Workload {
	return Workload{
		Name: "triangular",
		N:    n,
		Cost: func(_, i int) float64 {
			return baseNs * (0.25 + 1.5*float64(i)/float64(n))
		},
	}
}

// Uniform returns a flat stationary workload — the static schedule's
// home turf, where any per-chunk overhead is pure loss.
func Uniform(n int, baseNs float64) Workload {
	return Workload{
		Name: "uniform",
		N:    n,
		Cost: func(_, _ int) float64 { return baseNs },
	}
}

// PhaseShift switches from workload a to workload b at shiftStep — the
// scripted phase change the drift-reset path must survive. a and b
// must have equal N.
func PhaseShift(a, b Workload, shiftStep int) Workload {
	if a.N != b.N {
		panic(fmt.Sprintf("adapt: PhaseShift needs equal N, got %d and %d", a.N, b.N))
	}
	return Workload{
		Name: fmt.Sprintf("%s-then-%s", a.Name, b.Name),
		N:    a.N,
		Cost: func(step, i int) float64 {
			if step < shiftStep {
				return a.Cost(step, i)
			}
			return b.Cost(step-shiftStep, i)
		},
	}
}

// Scaled multiplies a workload's cost surface by k from shiftStep on —
// the KindCostShift fault shape (same raggedness, heavier iterations).
func Scaled(w Workload, k float64, shiftStep int) Workload {
	return Workload{
		Name: fmt.Sprintf("%s-x%g@%d", w.Name, k, shiftStep),
		N:    w.N,
		Cost: func(step, i int) float64 {
			c := w.Cost(step, i)
			if step >= shiftStep {
				c *= k
			}
			return c
		},
	}
}

// The overheads Sim charges on top of the workload's iteration costs,
// so chunk size and schedule have the real tradeoff: finer chunks
// balance better but pay more deal/chunk overhead, and every region
// pays a fork-join cost per worker.
const (
	forkNs  = 1500 // per-worker fork-join cost of one region (the paper's sync cost)
	dealNs  = 400  // per-chunk atomic deal cost for Dynamic and Guided
	chunkNs = 60   // fixed per-chunk dispatch overhead every schedule pays
)

// Sim executes workload steps under a Choice exactly the way parloop
// deals them (model.Deal) at the overheads above.
type Sim struct {
	W Workload
	// Clock, when non-nil, is advanced by each simulated step's wall
	// time, so a soak driving real timers off the same virtual clock
	// sees simulated time flow.
	Clock *simclock.Virtual
}

// StepResult is one simulated step's outcome.
type StepResult struct {
	WallNs  float64   // makespan + fork-join cost
	WorkNs  float64   // pure iteration cost, summed
	BusyNs  []float64 // per-worker busy time including overheads
	Chunks  int
	Deals   int // atomic deal operations (Dynamic/Guided only)
	Workers int
}

// Step simulates one step of the workload under ch and returns both
// the raw result and the Verdict the controller would see for it.
func (s Sim) Step(step int, ch Choice) (StepResult, Verdict) {
	cost := func(lo, hi int) float64 {
		c := 0.0
		for i := lo; i < hi; i++ {
			c += s.W.Cost(step, i)
		}
		return c
	}
	d := model.Deal(s.W.N, ch.Workers, ch.Sched, ch.Chunk, cost, model.Overheads{Deal: dealNs, Chunk: chunkNs})
	p := len(d.Busy)
	wall := d.Makespan + forkNs
	res := StepResult{
		WallNs: wall, WorkNs: d.Work, BusyNs: d.Busy,
		Chunks: d.Chunks, Deals: d.Deals, Workers: p,
	}

	total := float64(p) * wall
	idle := 0.0
	for _, b := range d.Busy {
		idle += d.Makespan - b
	}
	overhead := float64(p)*forkNs + float64(d.Deals)*dealNs + float64(d.Chunks)*chunkNs
	syncFrac := overhead / total
	v := Verdict{
		WallNs:        int64(wall),
		ImbalanceFrac: idle / total,
		SyncFrac:      syncFrac,
		BudgetPass:    syncFrac < 0.05,
	}
	if s.Clock != nil {
		s.Clock.Advance(time.Duration(wall) * time.Nanosecond)
	}
	return res, v
}

// SimOutcome is the result of driving a controller against a simulated
// workload for a fixed number of steps.
type SimOutcome struct {
	Steps int
	// Final is the controller's choice after the last step.
	Final Choice
	// ConvergedAt is the first step (1-based) at which the controller
	// reported convergence, or -1 if it never did.
	ConvergedAt int
	// FinalScore is the steady-state wall ns of Final, simulated at
	// the last step's cost surface.
	FinalScore float64
	// Wall accumulates the simulated wall time of every step actually
	// taken (exploration cost included).
	Wall float64
	// Choices records the choice applied at each step.
	Choices []Choice
}

// RunSim drives ctrl against the simulated workload for steps steps:
// each step runs under the controller's current choice, and the
// resulting verdict is fed back.
func RunSim(s Sim, ctrl *Controller, steps int) SimOutcome {
	out := SimOutcome{Steps: steps, ConvergedAt: -1}
	for t := 0; t < steps; t++ {
		ch := ctrl.Choice()
		out.Choices = append(out.Choices, ch)
		res, v := s.Step(t, ch)
		out.Wall += res.WallNs
		ctrl.Observe(v)
		if out.ConvergedAt < 0 && ctrl.Converged() {
			out.ConvergedAt = t + 1
		}
	}
	out.Final = ctrl.Choice()
	res, _ := s.Step(steps-1, out.Final)
	out.FinalScore = res.WallNs
	return out
}
