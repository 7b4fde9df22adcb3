package euler

import (
	"context"
	"testing"
	"time"

	"repro/internal/sched"
)

func runSweep(t *testing.T, procs, points, sweeps int) float64 {
	t.Helper()
	s := sched.New(sched.Config{Procs: procs, QueueDepth: 4})
	defer s.Close()
	j := NewSweepJob("sweep", points, sweeps)
	h, err := s.Submit(j)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if st := h.Status(); st.State != sched.StateDone {
		t.Fatalf("state %v, want done", st.State)
	}
	return j.Checksum()
}

// TestSweepJobChecksumTeamSizeInvariant: the sweep's checksum is a
// serial fold over a point-indexed array, so any processor grant —
// and any resize history — produces the bitwise-identical result.
func TestSweepJobChecksumTeamSizeInvariant(t *testing.T) {
	const points, sweeps = 257, 3
	ref := runSweep(t, 1, points, sweeps)
	for _, procs := range []int{2, 4, 7} {
		if got := runSweep(t, procs, points, sweeps); got != ref {
			t.Errorf("procs=%d: checksum %.17g != serial %.17g", procs, got, ref)
		}
	}
}

// TestSweepJobParallelism: a sweep requests all its points once its
// work, 1 050 cycles a point, clears the bar of two model.ForkCycles.
func TestSweepJobParallelism(t *testing.T) {
	for _, tc := range []struct{ points, m int }{{42, 1}, {285, 1}, {286, 286}, {4096, 4096}} {
		if got := NewSweepJob("s", tc.points, 1).Parallelism(); got != tc.m {
			t.Errorf("%d points: Parallelism = %d, want %d", tc.points, got, tc.m)
		}
	}
}

func TestNewSweepJobPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSweepJob(0 points) should panic")
		}
	}()
	NewSweepJob("bad", 0, 1)
}
