package f3d

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/parloop"
	"repro/internal/sched"
)

// TestJobParallelismFollowsShape: a step's M is the widest loop its
// shape splits, so the scheduler plans a job's grants on that loop's
// stair; a job runs DefaultShape, and its M is that shape's. Paper1M's
// largest dimension is J = 89, but the default shape splits only the
// K−2 = 73 rows and L−2 = 68 planes.
func TestJobParallelismFollowsShape(t *testing.T) {
	job, err := NewJob("default", DefaultConfig(grid.Paper1M()), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m := job.Parallelism(); m != 73 {
		t.Errorf("job Parallelism = %d, want DefaultShape's 73", m)
	}
	for _, tc := range []struct {
		name    string
		shape   StepShape
		m, at32 int // M, and PlateauGrant(M, 32)
	}{
		{"default", DefaultShape(), 73, 25},
		{"serial", StepShape{}, 1, 1},
		{"sweep-jk only", StepShape{SweepJK: true}, 68, 23},
	} {
		sp := StepProfileFor(grid.Paper1M(), tc.shape)
		m := sp.MaxParallelism()
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
// structure: a job runs DefaultShape, and on a
// two-worker grant each zone step is exactly four synchronization
// events (RHS region + its barrier, two sweep regions) — the
// benchmark's parloop.sync_events_per_step, held here in tier-1 — and
// the job's setup two per zone (the init region + its barrier). At the
// 0.15 scale the work pays for the second processor.
func TestJobDefaultShapeCostsFourSyncsPerZoneStep(t *testing.T) {
	const steps = 2
	c := grid.Scaled(grid.Paper1M(), 0.15)
	job, err := NewJob("served", DefaultConfig(c), steps, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	var workers int
	var syncs uint64
	var shape StepShape
	job.WithFinalHook(func(s Solver) {
		team := s.(*CacheSolver).Team()
		workers, syncs, shape = team.Workers(), team.SyncEvents(), s.(*CacheSolver).Shape()
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
	if shape != DefaultShape() {
		t.Fatalf("job ran %+v, want DefaultShape %+v", shape, DefaultShape())
	}
	if want := uint64(4*len(c.Zones)*steps + 2*len(c.Zones)); syncs != want {
		t.Errorf("%d zones × %d steps cost %d sync events, want %d (4 per zone step, 2 per zone setup)",
			len(c.Zones), steps, syncs, want)
	}
}

// TestParallelInitMatchesSerialBitwise: a served job's setup runs on its
// granted team, split over L planes with the boundary pass behind a
// barrier. InitPulse and InitUniform on teams of 1–4 workers must write
// Q bit for bit as the one-worker init does — at the serve_solo sizes, on
// a multi-zone case, and with wall and extrapolation faces, whose values
// are read from the interior.
func TestParallelInitMatchesSerialBitwise(t *testing.T) {
	walls := DefaultConfig(grid.Single(33, 27, 25))
	walls.FaceBC = map[Face]BCKind{FaceLMin: BCSlipWall, FaceLMax: BCNoSlipWall, FaceJMax: BCExtrapolate}
	cases := map[string]Config{
		"33x27x25": DefaultConfig(grid.Single(33, 27, 25)),
		"41x33x29": DefaultConfig(grid.Single(41, 33, 29)),
		"49x37x31": DefaultConfig(grid.Single(49, 37, 31)),
		"1m/0.15":  DefaultConfig(grid.Scaled(grid.Paper1M(), 0.15)),
		"walls":    walls,
	}
	inits := map[string]func(Solver){"pulse": func(s Solver) { InitPulse(s, 0.02) }, "uniform": InitUniform}
	for cname, cfg := range cases {
		for iname, init := range inits {
			var ref []*ZoneState
			for workers := 1; workers <= 4; workers++ {
				team := parloop.NewTeam(workers)
				defer team.Close()
				s := newCache(t, cfg, CacheOptions{Team: team})
				init(s)
				if workers > 1 && team.SyncEvents() != uint64(2*len(s.Zones())) {
					t.Errorf("%s %s: %d workers: init cost %d sync events, want 2 per zone", cname, iname, workers, team.SyncEvents())
				}
				if ref == nil {
					ref = s.Zones()
					continue
				}
				for zi, zs := range s.Zones() {
					fieldsBitEqual(t, fmt.Sprintf("%s %s zone %d, %d workers", cname, iname, zi, workers), &zs.Q, &ref[zi].Q)
				}
			}
		}
	}
}

// TestJobDivergesAsError: a pulse the scheme cannot advance fails the
// served job with ErrDiverged, as a solver error — not as a panic —
// and names the step.
func TestJobDivergesAsError(t *testing.T) {
	s := sched.New(sched.Config{Procs: 1})
	defer s.Close()
	job, err := NewJob("diverge", DefaultConfig(grid.Single(9, 8, 7)), 3, 1e300)
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	err = h.Wait(context.Background())
	if !errors.Is(err, ErrDiverged) || !strings.Contains(err.Error(), "step 1") {
		t.Fatalf("err %v, want ErrDiverged at step 1", err)
	}
	if st := h.Status(); st.State != sched.StateFailed || st.Cause != sched.CauseError {
		t.Errorf("job %s with cause %s, want failed with cause error", st.State, st.Cause)
	}
}

// FuzzJobRun drives the solver's front door — a served job built from
// zone dims (3 to 12 a side), a pulse and up to 3 steps: Run never
// panics, and every residual it records is finite unless it ends in
// ErrDiverged. Inputs NewJob refuses (a pulse ≤ −1, NaN or ±Inf) never
// run.
func FuzzJobRun(f *testing.F) {
	f.Add(uint8(6), uint8(5), uint8(4), 0.05, uint8(1))
	f.Add(uint8(0), uint8(0), uint8(0), 0.5, uint8(2))
	f.Add(uint8(9), uint8(9), uint8(9), 1e300, uint8(2))
	f.Add(uint8(3), uint8(7), uint8(1), -0.999, uint8(2))
	f.Add(uint8(2), uint8(2), uint8(2), math.Inf(1), uint8(0))
	s := sched.New(sched.Config{Procs: 2})
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, j, k, l uint8, pulse float64, steps uint8) {
		dim := func(d uint8) int { return 3 + int(d)%10 }
		job, err := NewJob("fuzz", DefaultConfig(grid.Single(dim(j), dim(k), dim(l))), 1+int(steps)%3, pulse)
		if err != nil {
			return
		}
		h, err := s.Submit(job)
		if err != nil {
			t.Fatal(err)
		}
		err = h.Wait(context.Background())
		if st := h.Status(); st.Cause == sched.CausePanic {
			t.Fatalf("Run panicked: %v", err)
		}
		if err != nil && !errors.Is(err, ErrDiverged) {
			t.Fatalf("Run: %v", err)
		}
		for i, r := range job.History().Residuals {
			if math.IsNaN(r) || math.IsInf(r, 0) {
				t.Fatalf("step %d residual %v recorded (run err %v)", i+1, r, err)
			}
		}
	})
}
