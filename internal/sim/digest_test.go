package sim

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/grid"
	"repro/internal/machine"
)

// sweepDigest is the SHA-256 of the Sweep results in TestSweepDigest.
// A rewrite of StepProfile.PredictStepCycles must keep it: Table 4 and
// Figures 2–3 are read off these sweeps.
const sweepDigest = "ae2b6021e123601f7d4d9f2c0652752700fb724255334b082e23dc636a31aaee"

// TestSweepDigest pins Sweep bit for bit: both paper cases × the four
// evaluated machines × 1–200 processors, steps/hour, MFLOPS and speedup
// printed with %x (hex floats) into one hash.
func TestSweepDigest(t *testing.T) {
	h := sha256.New()
	for _, c := range []grid.Case{grid.Paper1M(), grid.Paper59M()} {
		prof := F3DProfile(c)
		for _, m := range machine.Evaluated() {
			for _, r := range Sweep(prof, m, 200) {
				fmt.Fprintf(h, "%s %s %d|%x %x %x\n", c.Name, m.Name, r.Procs, r.StepsPerHour, r.MFLOPS, r.Speedup)
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != sweepDigest {
		t.Fatalf("Sweep digest %s, want %s", got, sweepDigest)
	}
}
