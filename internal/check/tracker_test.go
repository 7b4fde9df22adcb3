package check

import (
	"math"
	"strings"
	"testing"

	"repro/internal/parloop"
)

// TestCheckerFlagsSeededDependence is the negative test the subsystem
// exists for: the seeded loop-carried recurrence must be flagged on
// every execution, for every team size above one — detection rests on
// barrier epochs, not on the racy interleaving actually occurring.
func TestCheckerFlagsSeededDependence(t *testing.T) {
	k := SeededDependence()
	for _, workers := range []int{2, 3, 8} {
		res := CheckDependences([]Kernel{k}, workers)
		if len(res) != 1 {
			t.Fatalf("workers=%d: %d results, want 1", workers, len(res))
		}
		races := res[0].Races
		if len(races) == 0 {
			t.Fatalf("workers=%d: seeded loop-carried dependence not flagged", workers)
		}
		r := races[0]
		if r.Array != "seeded.a" {
			t.Errorf("workers=%d: race on array %q, want seeded.a", workers, r.Array)
		}
		if r.Prev.Worker == r.Cur.Worker {
			t.Errorf("workers=%d: race between accesses of one worker: %v", workers, r)
		}
		if r.Prev.Phase != r.Cur.Phase {
			t.Errorf("workers=%d: race across phases %d vs %d", workers, r.Prev.Phase, r.Cur.Phase)
		}
		if !r.Prev.Write && !r.Cur.Write {
			t.Errorf("workers=%d: race with no write: %v", workers, r)
		}
		if s := r.String(); !strings.Contains(s, "seeded.a") || !strings.Contains(s, "race") {
			t.Errorf("unhelpful race message: %q", s)
		}
	}
}

// TestCheckerSilentOnRegistry: every shipped kernel with a tracked
// variant must come back clean — their cross-worker reads are
// barrier-separated by construction.
func TestCheckerSilentOnRegistry(t *testing.T) {
	for _, workers := range []int{2, 4, 7} {
		for _, res := range CheckDependences(Registry(), workers) {
			if len(res.Races) != 0 {
				t.Errorf("workers=%d: shipped kernel %s flagged: %v", workers, res.Kernel, res.Races[0])
			}
		}
	}
}

// TestCheckerSerialTeamSilent: a one-worker team executes the
// recurrence in order; there is no dependence to violate and the
// checker must stay silent.
func TestCheckerSerialTeamSilent(t *testing.T) {
	res := CheckDependences([]Kernel{SeededDependence()}, 1)
	if n := len(res[0].Races); n != 0 {
		t.Errorf("serial execution flagged %d races", n)
	}
}

// TestTrackedVariantsComputeCorrectly: the instrumented bodies are
// still the kernel — their output must match the serial reference (the
// seeded kernel excepted, it is wrong by design).
func TestTrackedVariantsComputeCorrectly(t *testing.T) {
	for _, k := range Registry() {
		if k.Tracked == nil {
			continue
		}
		team := parloop.NewTeam(3)
		tk := NewTracker(team, 0)
		got := k.Tracked(tk, team, k.N)
		team.Close()
		want := k.Serial(k.N)
		if len(got) != len(want) {
			t.Fatalf("%s tracked: length %d, want %d", k.Name, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s tracked: out[%d] = %v, want %v", k.Name, i, got[i], want[i])
			}
		}
	}
}

func TestWriteWriteConflictDetected(t *testing.T) {
	team := parloop.NewTeam(4)
	defer team.Close()
	tk := NewTracker(team, 0)
	a := tk.Float64s("shared", 8)
	team.Region(func(ctx *parloop.WorkerCtx) {
		a.Store(ctx.ID(), 0, float64(ctx.ID()))
	})
	races := tk.Races()
	if len(races) == 0 {
		t.Fatal("cross-worker same-phase writes not flagged")
	}
	if kind := races[0].Kind(); kind != "write-write" {
		t.Errorf("race kind %q, want write-write", kind)
	}
}

func TestSharedReadsAreNotRaces(t *testing.T) {
	team := parloop.NewTeam(4)
	defer team.Close()
	tk := NewTracker(team, 0)
	a := tk.Track("input", []float64{1, 2, 3, 4})
	var sink [8]float64
	team.Region(func(ctx *parloop.WorkerCtx) {
		w := ctx.ID()
		sink[w] = a.Load(w, 0) + a.Load(w, 1)
	})
	if races := tk.Races(); len(races) != 0 {
		t.Errorf("read-only sharing flagged: %v", races[0])
	}
}

// TestBarrierOrdersConflict: the same write/read pair that races
// within a phase is legal when a barrier separates the two loops.
func TestBarrierOrdersConflict(t *testing.T) {
	team := parloop.NewTeam(3)
	defer team.Close()

	// Without a barrier: worker w writes b[w], then reads a neighbor's
	// element in the same phase — a race.
	tk := NewTracker(team, 0)
	b := tk.Float64s("b", 3)
	var sink [3]float64
	team.Region(func(ctx *parloop.WorkerCtx) {
		w := ctx.ID()
		b.Store(w, w, float64(w))
		sink[w] = b.Load(w, (w+1)%3)
	})
	if len(tk.Races()) == 0 {
		t.Fatal("unbarriered cross-worker read of fresh writes not flagged")
	}

	// With a barrier between the phases: clean.
	tk2 := NewTracker(team, 0)
	b2 := tk2.Float64s("b2", 3)
	team.Region(func(ctx *parloop.WorkerCtx) {
		w := ctx.ID()
		b2.Store(w, w, float64(w))
		ctx.Barrier()
		sink[w] = b2.Load(w, (w+1)%3)
	})
	if races := tk2.Races(); len(races) != 0 {
		t.Errorf("barrier-separated phases flagged: %v", races[0])
	}
}

// TestJoinOrdersConflict: accesses in different regions are separated
// by the intervening join/fork; writes from region one may be read by
// anyone in region two.
func TestJoinOrdersConflict(t *testing.T) {
	team := parloop.NewTeam(3)
	defer team.Close()
	tk := NewTracker(team, 0)
	a := tk.Float64s("a", 64)
	team.Region(func(ctx *parloop.WorkerCtx) {
		w := ctx.ID()
		lo, hi := ctx.Range(64)
		for i := lo; i < hi; i++ {
			a.Store(w, i, float64(i))
		}
	})
	var sums [3]float64
	team.Region(func(ctx *parloop.WorkerCtx) {
		w := ctx.ID()
		lo, hi := ctx.Range(64)
		for i := lo; i < hi; i++ {
			sums[w] += a.Load(w, 63-i) // mirrored partition: cross-worker reads
		}
	})
	if races := tk.Races(); len(races) != 0 {
		t.Errorf("join-separated write/read flagged: %v", races[0])
	}
}

func TestTrackerResetClearsState(t *testing.T) {
	team := parloop.NewTeam(2)
	defer team.Close()
	tk := NewTracker(team, 0)
	a := tk.Float64s("x", 4)
	team.Region(func(ctx *parloop.WorkerCtx) {
		a.Store(ctx.ID(), 0, 1)
	})
	if len(tk.Races()) == 0 {
		t.Fatal("setup: expected a race")
	}
	tk.Reset()
	if len(tk.Races()) != 0 {
		t.Fatal("Reset left races behind")
	}
	// A clean run after Reset stays clean (shadow cells were cleared,
	// so the pre-Reset writes cannot conflict with new accesses).
	team.Region(func(ctx *parloop.WorkerCtx) {
		lo, hi := ctx.Range(4)
		for i := lo; i < hi; i++ {
			a.Store(ctx.ID(), i, 2)
		}
	})
	if races := tk.Races(); len(races) != 0 {
		t.Errorf("clean run after Reset flagged: %v", races[0])
	}
}

func TestTrackerLimitCapsRaces(t *testing.T) {
	team := parloop.NewTeam(4)
	defer team.Close()
	tk := NewTracker(team, 3)
	a := tk.Float64s("x", 64)
	team.Region(func(ctx *parloop.WorkerCtx) {
		for i := 0; i < 64; i++ {
			a.Store(ctx.ID(), i, 1) // every element conflicts
		}
	})
	if got := len(tk.Races()); got > 3 {
		t.Errorf("limit 3 recorded %d races", got)
	}
}
