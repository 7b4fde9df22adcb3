package adapt

import (
	"testing"
	"time"

	"repro/internal/parloop"
	"repro/internal/simclock"
)

// TestSimWorkConservation: every schedule must execute exactly the
// workload's total cost, whatever the dealing.
func TestSimWorkConservation(t *testing.T) {
	w := Ragged(257, 700, 2.5, 42)
	want := 0.0
	for i := 0; i < w.N; i++ {
		want += w.Cost(0, i)
	}
	s := Sim{W: w}
	for _, sched := range parloop.Schedules() {
		for _, chunk := range []int{1, 7, 64} {
			for _, workers := range []int{1, 3, 4, 8} {
				res, v := s.Step(0, Choice{Sched: sched, Chunk: chunk, Workers: workers})
				if diff := res.WorkNs - want; diff > 1e-6*want || diff < -1e-6*want {
					t.Fatalf("%v/c%d/w%d: work %.0f != %.0f", sched, chunk, workers, res.WorkNs, want)
				}
				if res.WallNs < want/float64(workers) {
					t.Fatalf("%v/c%d/w%d: wall %.0f below perfect parallel bound %.0f",
						sched, chunk, workers, res.WallNs, want/float64(workers))
				}
				if v.ImbalanceFrac < 0 || v.ImbalanceFrac > 1 || v.SyncFrac < 0 || v.SyncFrac > 1 {
					t.Fatalf("%v/c%d/w%d: fractions out of range: %+v", sched, chunk, workers, v)
				}
			}
		}
	}
}

// TestSimSchedulePreferences: the cost surface must reproduce the
// qualitative tradeoffs the controller exists to exploit.
func TestSimSchedulePreferences(t *testing.T) {
	// Ragged: on-demand dealing beats the one-shot static deal.
	ragged := Sim{W: Ragged(96, 800, 3, 11)}
	stat, _ := ragged.Step(0, Choice{Sched: parloop.Static, Chunk: 1, Workers: 4})
	dyn, _ := ragged.Step(0, Choice{Sched: parloop.Dynamic, Chunk: 8, Workers: 4})
	if dyn.WallNs >= stat.WallNs {
		t.Fatalf("ragged: dynamic %.0f not better than static %.0f", dyn.WallNs, stat.WallNs)
	}
	// Uniform: static's zero deal cost wins over fine-chunk dynamic.
	uniform := Sim{W: Uniform(96, 800)}
	stat, _ = uniform.Step(0, Choice{Sched: parloop.Static, Chunk: 1, Workers: 4})
	dynFine, _ := uniform.Step(0, Choice{Sched: parloop.Dynamic, Chunk: 1, Workers: 4})
	if stat.WallNs >= dynFine.WallNs {
		t.Fatalf("uniform: static %.0f not better than dynamic/c1 %.0f", stat.WallNs, dynFine.WallNs)
	}
	// Chunk tradeoff under dynamic: chunk 1 pays more deals than chunk 8.
	d1, _ := ragged.Step(0, Choice{Sched: parloop.Dynamic, Chunk: 1, Workers: 4})
	d8, _ := ragged.Step(0, Choice{Sched: parloop.Dynamic, Chunk: 8, Workers: 4})
	if d1.Deals <= d8.Deals {
		t.Fatalf("deal counts: c1=%d c8=%d", d1.Deals, d8.Deals)
	}
}

// TestWorkloadBuilders pins the scripted surfaces.
func TestWorkloadBuilders(t *testing.T) {
	r := Ragged(64, 100, 1, 9)
	if r.Cost(0, 3) != r.Cost(5, 3) {
		t.Fatal("ragged workload not stationary")
	}
	if r.Cost(0, 7) < 8*100 {
		t.Fatalf("heavy-tail index 7 cost %.0f; want >= 800", r.Cost(0, 7))
	}
	tri := Triangular(64, 100)
	if tri.Cost(0, 10) >= tri.Cost(0, 50) {
		t.Fatal("triangular costs not increasing")
	}
	ps := PhaseShift(Uniform(8, 1), Uniform(8, 2), 3)
	if ps.Cost(2, 0) != 1 || ps.Cost(3, 0) != 2 {
		t.Fatalf("phase shift: %v %v", ps.Cost(2, 0), ps.Cost(3, 0))
	}
	sc := Scaled(Uniform(8, 5), 4, 10)
	if sc.Cost(9, 0) != 5 || sc.Cost(10, 0) != 20 {
		t.Fatalf("scaled: %v %v", sc.Cost(9, 0), sc.Cost(10, 0))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PhaseShift with mismatched N did not panic")
		}
	}()
	PhaseShift(Uniform(8, 1), Uniform(9, 1), 1)
}

// TestSimVirtualClock: the sim advances an attached virtual clock by
// simulated wall time, so simclock-driven harnesses see time flow.
func TestSimVirtualClock(t *testing.T) {
	vc := simclock.NewVirtual(time.Date(2001, 9, 1, 0, 0, 0, 0, time.UTC))
	s := Sim{W: Uniform(16, 100), Clock: vc}
	before := vc.Now()
	res, _ := s.Step(0, Choice{Sched: parloop.Static, Chunk: 1, Workers: 2})
	got := vc.Now().Sub(before)
	if got != time.Duration(res.WallNs)*time.Nanosecond {
		t.Fatalf("clock advanced %v; step wall %v", got, time.Duration(res.WallNs))
	}
}

// TestSimDegenerate: empty and single-iteration workloads stay sane.
func TestSimDegenerate(t *testing.T) {
	for _, sched := range parloop.Schedules() {
		s := Sim{W: Uniform(0, 100)}
		res, v := s.Step(0, Choice{Sched: sched, Chunk: 4, Workers: 4})
		if res.WorkNs != 0 || v.WallNs <= 0 {
			t.Fatalf("%v empty: %+v %+v", sched, res, v)
		}
		s1 := Sim{W: Uniform(1, 100)}
		res1, _ := s1.Step(0, Choice{Sched: sched, Chunk: 4, Workers: 4})
		if res1.WorkNs != 100 {
			t.Fatalf("%v single: work %.0f", sched, res1.WorkNs)
		}
	}
}
