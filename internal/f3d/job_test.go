package f3d

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/parloop"
	"repro/internal/sched"
)

// TestJobParallelismFollowsShape: a job's M is the widest loop its step
// shape splits, so the scheduler plans its grants on that loop's stair.
// Paper1M's largest dimension is J = 89, but the default shape splits
// only the K−2 = 73 rows and L−2 = 68 planes.
func TestJobParallelismFollowsShape(t *testing.T) {
	for _, tc := range []struct {
		name    string
		shape   StepShape
		m, at32 int // M, and PlateauGrant(M, 32)
	}{
		{"default", DefaultShape(), 73, 25},
		{"serial", StepShape{}, 1, 1},
		{"sweep-jk only", StepShape{SweepJK: true}, 68, 23},
	} {
		job, err := NewJob(tc.name, DefaultConfig(grid.Paper1M()), 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		m := job.WithShape(tc.shape).Parallelism()
		if m != tc.m {
			t.Errorf("%s: Parallelism = %d, want %d", tc.name, m, tc.m)
		}
		if p := sched.PlateauGrant(m, 32); p != tc.at32 {
			t.Errorf("%s: PlateauGrant(%d, 32) = %d, want %d", tc.name, m, p, tc.at32)
		}
	}
}

func TestJobRunsUnderScheduler(t *testing.T) {
	cfg := DefaultConfig(grid.Single(17, 13, 11))
	job, err := NewJob("wing", cfg, 4, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if got := job.Parallelism(); got != 11 {
		t.Fatalf("Parallelism = %d, want the default shape's K−2 = 11", got)
	}
	s := sched.New(sched.Config{Procs: 3, QueueDepth: 4})
	defer s.Close()
	h, err := s.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	st := h.Status()
	if st.State != sched.StateDone {
		t.Fatalf("state %v, want done", st.State)
	}
	if st.SyncEvents == 0 {
		t.Error("no sync events recorded for a parallel solver job")
	}
	hist := job.History()
	if len(hist.Residuals) != 4 {
		t.Fatalf("recorded %d residuals, want 4", len(hist.Residuals))
	}
	for i, r := range hist.Residuals {
		if math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
			t.Fatalf("residual[%d] = %g, want finite positive", i, r)
		}
	}
}

func TestJobCancelMidRun(t *testing.T) {
	cfg := DefaultConfig(grid.Single(11, 10, 9))
	job, err := NewJob("long", cfg, 100000, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	s := sched.New(sched.Config{Procs: 2, QueueDepth: 4})
	defer s.Close()
	h, err := s.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	// Let a few steps land, then cancel; the job must stop at its next
	// checkpoint rather than run all 100000 steps.
	deadline := time.Now().Add(30 * time.Second)
	for len(job.History().Residuals) < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	h.Cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := h.Wait(ctx); err == nil {
		t.Fatal("canceled job returned nil error")
	}
	if st := h.Status(); st.State != sched.StateCanceled {
		t.Fatalf("state %v, want canceled", st.State)
	}
	if n := len(job.History().Residuals); n >= 100000 {
		t.Fatalf("job ran to completion (%d steps) despite cancel", n)
	}
}

// TestCacheSolverSurvivesTeamResize exercises the mechanism a
// scheduler grant resize relies on: the solver must keep working when
// its team grows or shrinks between steps (per-worker scratch is grown
// on demand), and the physics must stay put — the resized run's
// residuals match a fixed-team reference to rounding.
func TestCacheSolverSurvivesTeamResize(t *testing.T) {
	cfg := DefaultConfig(grid.Single(11, 10, 9))

	ref, err := NewCacheSolver(cfg, CacheOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	InitPulse(ref, 0.05)
	var want []float64
	for i := 0; i < 4; i++ {
		want = append(want, ref.Step().Residual)
	}

	team := parloop.NewTeam(1)
	defer team.Close()
	s, err := NewCacheSolver(cfg, CacheOptions{Team: team})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	InitPulse(s, 0.05)
	var got []float64
	for _, workers := range []int{1, 3, 4, 2} { // grow, grow, shrink
		team.Resize(workers)
		got = append(got, s.Step().Residual)
	}
	for i := range want {
		rel := math.Abs(got[i]-want[i]) / want[i]
		if rel > 1e-12 {
			t.Errorf("step %d: resized residual %.17g vs reference %.17g (rel %g)",
				i, got[i], want[i], rel)
		}
	}
}

// TestJobDefaultShapeCostsFourSyncsPerZoneStep pins the served
// structure: a job nobody reshaped runs DefaultShape, and on a
// two-worker grant each zone step is exactly four synchronization
// events (RHS region + its barrier, two sweep regions) — the
// benchmark's parloop.sync_events_per_step, held here in tier-1. The
// 0.15 scale is the smallest whose work pays for the second processor.
func TestJobDefaultShapeCostsFourSyncsPerZoneStep(t *testing.T) {
	const steps = 2
	c := grid.Scaled(grid.Paper1M(), 0.15)
	job, err := NewJob("served", DefaultConfig(c), steps, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if got := job.Shape().Load(); got != DefaultShape() {
		t.Fatalf("unshaped job reports %+v, want DefaultShape %+v", got, DefaultShape())
	}
	var workers int
	var syncs uint64
	job.WithFinalHook(func(s Solver) {
		team := s.(*CacheSolver).Team()
		workers, syncs = team.Workers(), team.SyncEvents()
	})
	s := sched.New(sched.Config{Procs: 2})
	defer s.Close()
	h, err := s.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if workers != 2 {
		t.Fatalf("job ran on %d workers, want the 2-processor grant", workers)
	}
	if want := uint64(4 * len(c.Zones) * steps); syncs != want {
		t.Errorf("%d zones × %d steps cost %d sync events, want %d (4 per zone step)",
			len(c.Zones), steps, syncs, want)
	}
}
