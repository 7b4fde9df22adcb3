package adapt

import (
	"context"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/simclock"
)

// TestLoopJobUnderScheduler runs the adaptive job end to end under a
// real scheduler — the control loop f3dd assembles for an "adaptive"
// submission.
func TestLoopJobUnderScheduler(t *testing.T) {
	s := sched.New(sched.Config{Procs: 4, Clock: simclock.Real{}})
	defer s.Close()

	job, err := NewLoopJob("adaptive", 96, 12, 300, 42, 4, nil)
	if err != nil {
		t.Fatalf("NewLoopJob: %v", err)
	}
	h, err := s.Submit(job)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := h.Wait(ctx); err != nil {
		t.Fatalf("job failed: %v", err)
	}

	// The scheduler's table hands back the job, and with it the
	// controller — the lookup behind GET /jobs/{id}/adapt.
	got, ok := s.Submitted(h.ID()).(*LoopJob)
	if !ok || got != job {
		t.Fatalf("Submitted(%d) = %v, want the submitted LoopJob", h.ID(), got)
	}
	st := got.Controller().Status()
	if st.Step != 12 {
		t.Fatalf("controller saw %d steps, want 12", st.Step)
	}
	if st.Choice.Workers < 1 || st.Choice.Workers > 4 || st.Choice.Chunk < 1 {
		t.Fatalf("final choice %v outside envelope", st.Choice)
	}
	if len(st.Decisions) == 0 {
		t.Fatal("no decisions recorded")
	}
}

func TestNewLoopJobValidation(t *testing.T) {
	cases := []struct {
		n, steps  int
		workScale float64
		procs     int
	}{
		{0, 5, 1, 4},
		{8, 0, 1, 4},
		{8, 5, 0, 4},
		{8, 5, 1, 0},
	}
	for _, c := range cases {
		if _, err := NewLoopJob("bad", c.n, c.steps, c.workScale, 1, c.procs, nil); err == nil {
			t.Fatalf("NewLoopJob(%+v) accepted", c)
		}
	}
	j, err := NewLoopJob("ok", 8, 5, 1, 1, 4, nil)
	if err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	if j.Name() != "ok" || j.Parallelism() != 8 {
		t.Fatalf("identity: %q %d", j.Name(), j.Parallelism())
	}
}
