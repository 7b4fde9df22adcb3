package sim_test

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Reproduce the paper's headline scaling number: the 59-million-point
// case on the 128-processor Origin 2000 at 124 processors (the paper
// measured 153 steps/hour, a speedup of ≈66).
func Example() {
	prof := sim.F3DProfile(grid.Paper59M())
	m := machine.Origin2000R12K().WithDelivered(179) // Table 4's 59M 1-proc rate
	r := sim.At(prof, m, 124)
	fmt.Printf("steps/hour: %.0f\n", r.StepsPerHour)
	fmt.Printf("speedup:    %.1f\n", r.Speedup)
	// Output:
	// steps/hour: 154
	// speedup:    66.9
}
