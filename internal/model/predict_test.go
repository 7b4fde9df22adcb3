package model

import (
	"math"
	"testing"
	"testing/quick"
)

// sampleProfile is a small F3D-like step profile: three implicit sweeps
// with limited parallelism, one well-parallel RHS loop, and serial
// boundary conditions.
func sampleProfile() StepProfile {
	return StepProfile{
		Loops: []LoopClass{
			{Name: "rhs", WorkCycles: 4e8, Parallelism: 89, SyncEvents: 3},
			{Name: "sweep-j", WorkCycles: 2e8, Parallelism: 75, SyncEvents: 1},
			{Name: "sweep-k", WorkCycles: 2e8, Parallelism: 89, SyncEvents: 1},
			{Name: "sweep-l", WorkCycles: 2e8, Parallelism: 89, SyncEvents: 1},
		},
		SerialCycles: 1e7,
	}
}

func TestTotalCyclesAndSyncEvents(t *testing.T) {
	p := sampleProfile()
	if got, want := p.TotalCycles(), 4e8+2e8+2e8+2e8+1e7; got != want {
		t.Errorf("TotalCycles = %g, want %g", got, want)
	}
	if got := p.SyncEventsPerStep(); got != 6 {
		t.Errorf("SyncEventsPerStep = %d, want 6", got)
	}
}

func TestPredictStepCyclesSingleProc(t *testing.T) {
	p := sampleProfile()
	// On one processor no parallel regions are opened: predicted time is
	// exactly the total work.
	if got, want := p.PredictStepCycles(1, 50_000), p.TotalCycles(); got != want {
		t.Errorf("PredictStepCycles(1) = %g, want %g", got, want)
	}
}

func TestPredictSpeedupBounds(t *testing.T) {
	p := sampleProfile()
	prev := 0.0
	for procs := 1; procs <= 89; procs++ {
		s := p.PredictSpeedup(procs, 0)
		if s > float64(procs)+1e-9 {
			t.Errorf("speedup %g at %d procs exceeds linear", s, procs)
		}
		if s < prev-1e-9 {
			t.Errorf("zero-sync speedup decreased: %g -> %g at %d procs", prev, s, procs)
		}
		prev = s
	}
	// With sync cost, speedup is strictly below the zero-sync value.
	for _, procs := range []int{2, 16, 64} {
		if p.PredictSpeedup(procs, 1e6) >= p.PredictSpeedup(procs, 0) {
			t.Errorf("sync cost did not reduce speedup at %d procs", procs)
		}
	}
}

func TestPredictSerialFractionCapsSpeedup(t *testing.T) {
	// A profile that is 10% serial cannot exceed Amdahl's bound of 10.
	p := StepProfile{
		Loops:        []LoopClass{{Name: "work", WorkCycles: 9e8, Parallelism: 1 << 20, SyncEvents: 1}},
		SerialCycles: 1e8,
	}
	s := p.PredictSpeedup(1<<20, 0)
	if s > 10+1e-6 {
		t.Errorf("speedup %g exceeds Amdahl bound 10", s)
	}
	if s < 9.9 {
		t.Errorf("speedup %g far below Amdahl bound 10 with zero sync cost", s)
	}
}

func TestPredictStairStepPlateau(t *testing.T) {
	// One loop with parallelism 15 must show Table 3 plateaus.
	p := StepProfile{
		Loops: []LoopClass{{Name: "only", WorkCycles: 1e9, Parallelism: 15, SyncEvents: 1}},
	}
	for procs := 5; procs <= 7; procs++ {
		if got := p.PredictSpeedup(procs, 0); math.Abs(got-5) > 1e-9 {
			t.Errorf("speedup at %d procs = %g, want 5 (plateau)", procs, got)
		}
	}
	if got := p.PredictSpeedup(15, 0); math.Abs(got-15) > 1e-9 {
		t.Errorf("speedup at 15 procs = %g, want 15", got)
	}
}

func TestScale(t *testing.T) {
	p := sampleProfile()
	q := p.Scale(59)
	if got, want := q.TotalCycles(), 59*p.TotalCycles(); math.Abs(got-want) > want*1e-12 {
		t.Errorf("scaled TotalCycles = %g, want %g", got, want)
	}
	if q.SyncEventsPerStep() != p.SyncEventsPerStep() {
		t.Errorf("Scale changed sync events: %d -> %d", p.SyncEventsPerStep(), q.SyncEventsPerStep())
	}
	for i := range q.Loops {
		if q.Loops[i].Parallelism != p.Loops[i].Parallelism {
			t.Errorf("Scale changed parallelism of %s", q.Loops[i].Name)
		}
	}
	// Original must be untouched.
	if p.Loops[0].WorkCycles != 4e8 {
		t.Errorf("Scale mutated receiver: %g", p.Loops[0].WorkCycles)
	}
	defer func() {
		if recover() == nil {
			t.Error("Scale(0) should panic")
		}
	}()
	p.Scale(0)
}

func TestPredictMonotoneInWork(t *testing.T) {
	f := func(w1, w2 uint32, pu uint8) bool {
		procs := int(pu%127) + 2
		a := StepProfile{Loops: []LoopClass{{WorkCycles: float64(w1), Parallelism: 64, SyncEvents: 1}}}
		b := StepProfile{Loops: []LoopClass{{WorkCycles: float64(w1) + float64(w2), Parallelism: 64, SyncEvents: 1}}}
		return b.PredictStepCycles(procs, 1000) >= a.PredictStepCycles(procs, 1000)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPredictPanics(t *testing.T) {
	p := sampleProfile()
	for name, fn := range map[string]func(){
		"procs":    func() { p.PredictStepCycles(0, 0) },
		"syncCost": func() { p.PredictStepCycles(1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
