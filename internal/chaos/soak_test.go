package chaos

import (
	"testing"
	"time"

	"repro/internal/sched"
)

// soakSeed pins the headline soak workload; changing it is fine, but
// the run must stay deterministic for whatever seed is chosen.
const soakSeed = 20260805

// TestChaosSoakDeterministic is the acceptance soak: 240 jobs with a
// ~36% injected-fault mix flooded through an 8-processor scheduler on
// the virtual clock. Soak itself asserts the invariants after every
// event (budget conservation, plateau-only grants, fault-determined
// terminal states, exact accounting, drain termination); this test
// additionally pins the workload shape — enough jobs, enough faults,
// every fault kind present, the flood path exercised — and that the
// whole thing needed zero real-time sleeps of consequence.
func TestChaosSoakDeterministic(t *testing.T) {
	cfg := SoakConfig{
		Seed: soakSeed,
		Jobs: 240,
		Gen: GenConfig{
			Profile: Profile{PanicWorker: 0.09, JobError: 0.09, Hang: 0.09, Stall: 0.09, Race: 0.09},
			MaxM:    24,
		},
	}
	res, err := Soak(cfg)
	if err != nil {
		t.Fatalf("soak: %v\nresult: %+v", err, res)
	}
	if res.Submitted != cfg.Jobs {
		t.Fatalf("submitted %d jobs, want %d (retry-until-admitted lost some)", res.Submitted, cfg.Jobs)
	}
	if frac := float64(res.Faulted) / float64(res.Submitted); frac < 0.20 {
		t.Fatalf("fault fraction %.2f below the 20%% floor (faulted %d/%d)", frac, res.Faulted, res.Submitted)
	}
	for _, k := range []Kind{KindPanicWorker, KindJobError, KindHang, KindStall, KindRace} {
		if res.ByKind[k] == 0 {
			t.Errorf("fault kind %v never injected; weaken the profile split or bump Jobs", k)
		}
	}
	if res.FloodRejections == 0 {
		t.Error("queue flood never hit ErrQueueFull; shrink QueueDepth to keep the backpressure path covered")
	}
	if res.ByState[sched.StateDone] == 0 || res.ByState[sched.StateFailed] == 0 || res.ByState[sched.StateTimedOut] == 0 {
		t.Errorf("terminal mix %v missing a state the fault mix must produce", res.ByState)
	}
	if res.ByState[sched.StateCanceled] != 0 {
		t.Errorf("%d jobs canceled; nothing cancels in a soak", res.ByState[sched.StateCanceled])
	}
	if res.Metrics.Panics != uint64(res.ByKind[KindPanicWorker]) {
		t.Errorf("panic counter %d != injected worker panics %d", res.Metrics.Panics, res.ByKind[KindPanicWorker])
	}
	if res.VirtualElapsed <= 0 {
		t.Error("virtual clock never advanced; hangs and stalls cannot have been exercised")
	}
}

// TestChaosSoakRepeatable runs the same seed twice and demands
// identical outcome histograms — the determinism half of the
// acceptance criterion, independent of goroutine interleaving.
func TestChaosSoakRepeatable(t *testing.T) {
	if testing.Short() {
		t.Skip("two soaks in -short mode")
	}
	cfg := SoakConfig{
		Seed: soakSeed,
		Jobs: 120,
		Gen: GenConfig{
			Profile: Profile{PanicWorker: 0.1, JobError: 0.1, Hang: 0.1, Stall: 0.1},
		},
	}
	a, err := Soak(cfg)
	if err != nil {
		t.Fatalf("first soak: %v", err)
	}
	b, err := Soak(cfg)
	if err != nil {
		t.Fatalf("second soak: %v", err)
	}
	for _, st := range []sched.State{sched.StateDone, sched.StateFailed, sched.StateTimedOut, sched.StateCanceled} {
		if a.ByState[st] != b.ByState[st] {
			t.Errorf("state %v: %d vs %d across identical seeds", st, a.ByState[st], b.ByState[st])
		}
	}
	for _, k := range []Kind{KindNone, KindPanicWorker, KindJobError, KindHang, KindStall, KindRace} {
		if a.ByKind[k] != b.ByKind[k] {
			t.Errorf("kind %v: %d vs %d across identical seeds", k, a.ByKind[k], b.ByKind[k])
		}
	}
}

// TestSoakTinyBudget squeezes the same chaos through a single
// processor with a queue of two — maximal contention, constant
// flooding — to shake out budget-accounting bugs that a roomy
// configuration hides.
func TestSoakTinyBudget(t *testing.T) {
	res, err := Soak(SoakConfig{
		Seed:       3,
		Jobs:       60,
		Procs:      1,
		QueueDepth: 2,
		Gen: GenConfig{
			Profile:  Profile{PanicWorker: 0.12, JobError: 0.12, Hang: 0.12, Stall: 0.12},
			MaxM:     6,
			MaxSteps: 2,
		},
		HangTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("soak: %v\nresult: %+v", err, res)
	}
	if res.FloodRejections == 0 {
		t.Error("queue depth 2 under 60 jobs never flooded")
	}
	if res.Metrics.MaxInUse > 1 {
		t.Errorf("max_in_use %d on a 1-processor budget", res.Metrics.MaxInUse)
	}
}
