package adapt

import (
	"math"
	"testing"

	"repro/internal/parloop"
)

// FuzzControllerDecide feeds arbitrary — including degenerate —
// verdict streams into the decision function and asserts the two
// safety properties no input may break:
//
//   - every pick stays in the legal envelope {schedule from the
//     config, chunk >= 1, 1 <= workers <= procs}, and
//   - the hysteresis bound holds: the applied configuration changes
//     only when a settleSteps measurement window closes, so two
//     consecutive changes are at least settleSteps observations apart.
//
// The corpus seeds cover zero-wall, tiny-wall and all-barrier
// verdicts explicitly; the fuzzer mutates from there (NaN and Inf
// fractions reach the controller through math.Float64frombits).
func FuzzControllerDecide(f *testing.F) {
	// wall, imbalance bits, barrier bits, sync bits, budget, seed
	f.Add(int64(0), uint64(0), uint64(0), uint64(0), true, int64(1))               // zero wall
	f.Add(int64(100), uint64(0), uint64(0), uint64(0), true, int64(2))             // tiny wall
	f.Add(int64(5000), uint64(0), math.Float64bits(1), uint64(0), false, int64(3)) // all barrier
	f.Add(int64(-50), math.Float64bits(math.NaN()), math.Float64bits(math.Inf(1)),
		math.Float64bits(-3), false, int64(4)) // garbage
	f.Add(int64(1e12), math.Float64bits(0.4), math.Float64bits(0.2),
		math.Float64bits(0.1), true, int64(5)) // huge

	f.Fuzz(func(t *testing.T, wall int64, imbBits, barBits, syncBits uint64,
		budget bool, seed int64) {
		cfg := Config{
			Procs:  4,
			M:      96,
			Chunks: []int{1, 8, 64},
		}
		full := cfg.withDefaults()
		start := Choice{
			Sched:   parloop.Schedule(seed % 6), // may be illegal; New must legalize
			Chunk:   int(seed % 7),
			Workers: int(seed % 11),
		}
		ctrl := New("fuzz", start, cfg)

		legal := func(ch Choice, when string) {
			ok := false
			for _, s := range full.Schedules {
				if ch.Sched == s {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("%s: illegal schedule in %v", when, ch)
			}
			if ch.Chunk < 1 {
				t.Fatalf("%s: chunk %d < 1 in %v", when, ch.Chunk, ch)
			}
			if ch.Workers < 1 || ch.Workers > full.Procs {
				t.Fatalf("%s: workers %d outside [1, %d] in %v", when, ch.Workers, full.Procs, ch)
			}
		}
		legal(ctrl.Choice(), "start")

		// Derive a deterministic stream of mutated verdicts from the
		// fuzzed one so hysteresis is exercised across many windows.
		prev := ctrl.Choice()
		lastChange := 0
		for step := 1; step <= 64; step++ {
			k := int64(step) * (seed | 1)
			v := Verdict{
				WallNs:        wall + k,
				ImbalanceFrac: math.Float64frombits(imbBits + uint64(step)),
				BarrierFrac:   math.Float64frombits(barBits ^ uint64(step)),
				SyncFrac:      math.Float64frombits(syncBits - uint64(step)),
				BudgetPass:    budget != (step%3 == 0),
			}
			d := ctrl.Observe(v)
			legal(d.Choice, "decision")
			legal(ctrl.Choice(), "applied")
			if d.Choice != prev {
				if since := step - lastChange; since < settleSteps {
					t.Fatalf("hysteresis violated: choice changed after %d steps (< settle %d): %v -> %v",
						since, settleSteps, prev, d.Choice)
				}
				lastChange = step
				prev = d.Choice
			}
			if d.Step != step {
				t.Fatalf("decision step %d, want %d", d.Step, step)
			}
		}
		// The status snapshot must stay well-formed too.
		st := ctrl.Status()
		legal(st.Choice, "status")
		for _, d := range st.Decisions {
			legal(d.Choice, "history")
		}
	})
}
