package model

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/parloop"
)

// TestDealMatchesForSchedW: the chunks Deal charges are exactly the
// chunks Team.ForSchedW executes, for every schedule, and for the two
// static schedules each worker is charged exactly the units it ran.
func TestDealMatchesForSchedW(t *testing.T) {
	for _, team := range []int{1, 2, 3, 8} {
		tm := parloop.NewTeam(team)
		for _, sched := range parloop.Schedules() {
			for _, n := range []int{0, 1, 7, 100, 257} {
				for _, chunk := range []int{0, 1, 3, 64} {
					name := fmt.Sprintf("%v/n%d/c%d/w%d", sched, n, chunk, team)
					var dealt [][2]int
					unit := func(lo, hi int) float64 {
						dealt = append(dealt, [2]int{lo, hi})
						return float64(hi - lo)
					}
					out := Deal(n, team, sched, chunk, unit, Overheads{})

					var mu sync.Mutex
					var ran [][2]int
					units := make([]float64, team)
					tm.ForSchedW(n, sched, chunk, func(w, lo, hi int) {
						mu.Lock()
						ran = append(ran, [2]int{lo, hi})
						units[w] += float64(hi - lo)
						mu.Unlock()
					})

					cmp := func(a, b [2]int) int {
						if a[0] != b[0] {
							return a[0] - b[0]
						}
						return a[1] - b[1]
					}
					slices.SortFunc(dealt, cmp)
					slices.SortFunc(ran, cmp)
					if !reflect.DeepEqual(dealt, ran) {
						t.Fatalf("%s: Deal charged %v, ForSchedW ran %v", name, dealt, ran)
					}
					if out.Chunks != len(ran) {
						t.Fatalf("%s: Deal counted %d chunks, ForSchedW ran %d", name, out.Chunks, len(ran))
					}
					if out.Work != float64(n) {
						t.Fatalf("%s: work %g, want %d", name, out.Work, n)
					}
					if (sched == parloop.Static || sched == parloop.StaticCyclic) && !reflect.DeepEqual(out.Busy, units) {
						t.Fatalf("%s: Deal busy %v, ForSchedW per-worker units %v", name, out.Busy, units)
					}
				}
			}
		}
		tm.Close()
	}
}

// TestDealUniformStaticIsStairStep pins Deal to the paper's closed
// forms: a uniform loop of n units dealt Static over p workers has the
// makespan MaxUnitsPerProcessor(n, p) and the speedup
// StairStepSpeedup(n, p) (Table 3), bit for bit.
func TestDealUniformStaticIsStairStep(t *testing.T) {
	for n := 1; n <= 64; n++ {
		for p := 1; p <= 64; p++ {
			out := Deal(n, p, parloop.Static, 1, Uniform(float64(n), n), Overheads{})
			if math.Float64bits(out.Makespan) != math.Float64bits(float64(MaxUnitsPerProcessor(n, p))) {
				t.Fatalf("n=%d p=%d: makespan %v, MaxUnitsPerProcessor %d", n, p, out.Makespan, MaxUnitsPerProcessor(n, p))
			}
			if s := float64(n) / out.Makespan; math.Float64bits(s) != math.Float64bits(StairStepSpeedup(n, p)) {
				t.Fatalf("n=%d p=%d: speedup %v, StairStepSpeedup %v", n, p, s, StairStepSpeedup(n, p))
			}
		}
	}
}

// TestDealOverheads: every chunk pays Chunk, on-demand chunks also pay
// Deal, and Work excludes both.
func TestDealOverheads(t *testing.T) {
	o := Overheads{Deal: 10, Chunk: 1}
	for _, sched := range parloop.Schedules() {
		out := Deal(100, 4, sched, 8, Uniform(100, 100), o)
		sum := 0.0
		for _, b := range out.Busy {
			sum += b
		}
		want := out.Work + float64(out.Chunks)*o.Chunk + float64(out.Deals)*o.Deal
		if out.Work != 100 || sum != want {
			t.Errorf("%v: work %g, Σbusy %g, want %g", sched, out.Work, sum, want)
		}
		deals := 0
		if sched == parloop.Dynamic || sched == parloop.Guided {
			deals = out.Chunks
		}
		if out.Deals != deals {
			t.Errorf("%v: %d deals for %d chunks", sched, out.Deals, out.Chunks)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown schedule did not panic")
		}
	}()
	Deal(1, 1, parloop.Schedule(99), 1, Uniform(1, 1), o)
}
