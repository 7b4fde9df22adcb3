package model

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/parloop"
)

// TestDealMatchesRegionRange: the Static deal the model charges
// (parloop.StaticRange, whose busiest worker holds MaxUnitsPerProcessor
// units) is exactly the deal a region executes: each worker runs its
// ctx.Range and every unit runs once.
func TestDealMatchesRegionRange(t *testing.T) {
	for _, team := range []int{1, 2, 3, 8} {
		tm := parloop.NewTeam(team)
		for _, n := range []int{0, 1, 7, 100, 257} {
			name := fmt.Sprintf("n%d/w%d", n, team)
			var mu sync.Mutex
			units := make([]int, team)
			ran := make([]int, n)
			tm.Region(func(ctx *parloop.WorkerCtx) {
				w := ctx.ID()
				lo, hi := ctx.Range(n)
				mu.Lock()
				defer mu.Unlock()
				units[w] += hi - lo
				for i := lo; i < hi; i++ {
					ran[i]++
				}
			})
			busiest := 0
			for w, u := range units {
				lo, hi := parloop.StaticRange(n, team, w)
				if u != hi-lo {
					t.Fatalf("%s: worker %d ran %d units, StaticRange deals it %d", name, w, u, hi-lo)
				}
				busiest = max(busiest, u)
			}
			for i, c := range ran {
				if c != 1 {
					t.Fatalf("%s: unit %d ran %d times", name, i, c)
				}
			}
			if n > 0 && busiest != MaxUnitsPerProcessor(n, team) {
				t.Fatalf("%s: busiest worker ran %d units, MaxUnitsPerProcessor %d", name, busiest, MaxUnitsPerProcessor(n, team))
			}
		}
		tm.Close()
	}
}

// TestDealUniformStaticIsStairStep pins PredictStepCycles to the paper's
// closed forms: a uniform loop of n units dealt Static over p workers
// has the makespan MaxUnitsPerProcessor(n, p) and the speedup
// StairStepSpeedup(n, p) (Table 3), bit for bit.
func TestDealUniformStaticIsStairStep(t *testing.T) {
	for n := 1; n <= 64; n++ {
		sp := StepProfile{Loops: []LoopClass{{WorkCycles: float64(n), Parallelism: n}}}
		for p := 1; p <= 64; p++ {
			got := sp.PredictStepCycles(p, 0)
			if math.Float64bits(got) != math.Float64bits(float64(MaxUnitsPerProcessor(n, p))) {
				t.Fatalf("n=%d p=%d: makespan %v, MaxUnitsPerProcessor %d", n, p, got, MaxUnitsPerProcessor(n, p))
			}
			if s := float64(n) / got; math.Float64bits(s) != math.Float64bits(StairStepSpeedup(n, p)) {
				t.Fatalf("n=%d p=%d: speedup %v, StairStepSpeedup %v", n, p, s, StairStepSpeedup(n, p))
			}
		}
	}
}
