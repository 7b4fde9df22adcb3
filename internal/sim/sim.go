// Package sim is the SMP execution-cost simulator that regenerates the
// paper's measured-performance table and figures (Table 4, Figures 2
// and 3) from first principles: it schedules a per-time-step loop
// profile (work, available loop-level parallelism, synchronization
// events — extracted from the real solver or shaped like the original
// F3D) onto a machine model and reports the paper's metrics,
// time steps/hour and delivered MFLOPS.
//
// The host running this reproduction has a single CPU, so wall-clock
// scaling cannot be measured here; the simulator substitutes for the
// 128-processor Origin 2000 and 64-processor HPC 10000 (see DESIGN.md,
// substitutions). Its arithmetic is exactly the model the paper itself
// uses to reason about scaling: stair-step ideal speedup (Table 3),
// per-region synchronization cost (Table 1), and Amdahl serial cost.
package sim

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/model"
)

// Result is one simulated data point: the paper's two metrics at a
// processor count.
type Result struct {
	Procs        int
	StepsPerHour float64
	MFLOPS       float64
	Speedup      float64 // relative to Procs = 1 on the same machine
}

// Run simulates the profile (work quantities in floating-point
// operations) on machine m for each processor count in procs. The
// profile's flops are converted to cycles with the machine's calibrated
// delivered rate; synchronization costs come from the machine's sync
// model.
func Run(profile model.StepProfile, m *machine.Machine, procs []int) []Result {
	flopsPerStep := profile.TotalCycles() // profile is in flops
	if flopsPerStep <= 0 {
		panic("sim: profile has no work")
	}
	cycles := profile.Scale(m.CyclesPerFlop())
	base := cycles.PredictStepCycles(1, m.SyncCostCycles(1))
	out := make([]Result, 0, len(procs))
	for _, p := range procs {
		if p < 1 {
			panic(fmt.Sprintf("sim: processor count must be >= 1, got %d", p))
		}
		stepCycles := cycles.PredictStepCycles(p, m.SyncCostCycles(p))
		secPerStep := stepCycles / (m.ClockMHz * 1e6)
		out = append(out, Result{
			Procs:        p,
			StepsPerHour: 3600 / secPerStep,
			MFLOPS:       flopsPerStep / secPerStep / 1e6,
			Speedup:      base / stepCycles,
		})
	}
	return out
}

// Sweep runs processor counts 1..maxProcs.
func Sweep(profile model.StepProfile, m *machine.Machine, maxProcs int) []Result {
	if maxProcs < 1 {
		panic(fmt.Sprintf("sim: maxProcs must be >= 1, got %d", maxProcs))
	}
	procs := make([]int, maxProcs)
	for i := range procs {
		procs[i] = i + 1
	}
	return Run(profile, m, procs)
}

// At returns the result at a specific processor count.
func At(profile model.StepProfile, m *machine.Machine, procs int) Result {
	return Run(profile, m, []int{procs})[0]
}

// Plateaus returns the maximal runs of consecutive processor counts
// whose steps/hour changes by less than tol (relative) — the "nearly
// flat performance" regions the paper points out in its results (§5).
// Only runs of at least minLen counts are reported.
type Plateau struct {
	Lo, Hi int
}

// FindPlateaus scans a sweep for flat regions.
func FindPlateaus(results []Result, tol float64, minLen int) []Plateau {
	if tol <= 0 {
		panic(fmt.Sprintf("sim: tol must be > 0, got %g", tol))
	}
	var out []Plateau
	i := 0
	for i < len(results) {
		j := i
		for j+1 < len(results) {
			a, b := results[j].StepsPerHour, results[j+1].StepsPerHour
			if a <= 0 {
				break
			}
			rel := (b - a) / a
			if rel < 0 {
				rel = -rel
			}
			if rel > tol {
				break
			}
			j++
		}
		if j-i+1 >= minLen {
			out = append(out, Plateau{Lo: results[i].Procs, Hi: results[j].Procs})
		}
		if j == i {
			i++
		} else {
			i = j
		}
	}
	return out
}
