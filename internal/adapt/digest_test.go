package adapt

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/parloop"
)

// simStepDigest is the SHA-256 of every Sim.Step result on the grid in
// TestSimStepDigest. Any bit that moves in a wall, a busy time, a count
// or a verdict fraction changes it. The verdict's own work, worker and
// unit counts are not hashed: they restate res.WorkNs, res.Workers and
// the workload's N, which are.
const simStepDigest = "9bea5b79583afa7a7af649b456d62e5d204cb82dfd3ec5e4febfe96b6e4e9f3d"

// TestSimStepDigest pins Sim.Step bit for bit: 7 workloads × 4 steps ×
// 4 schedules × 5 chunks × 7 worker counts (3 920 cases), each result
// and verdict printed with %x (hex floats) into one hash.
func TestSimStepDigest(t *testing.T) {
	workloads := []Workload{
		Ragged(257, 700, 2.5, 42),
		Ragged(96, 800, 3, 11),
		Triangular(100, 300),
		Uniform(96, 800),
		Uniform(1, 100),
		PhaseShift(Uniform(64, 500), Ragged(64, 500, 2, 5), 2),
		Scaled(Triangular(33, 90), 8, 1),
	}
	h := sha256.New()
	cases := 0
	for _, w := range workloads {
		s := Sim{W: w}
		for step := 0; step < 4; step++ {
			for _, sc := range parloop.Schedules() {
				for _, chunk := range []int{0, 1, 3, 8, 64} {
					for _, workers := range []int{0, 1, 2, 3, 4, 7, 16} {
						res, v := s.Step(step, Choice{Sched: sc, Chunk: chunk, Workers: workers})
						fmt.Fprintf(h, "%s %d %d %v %d %d|%x %x %x %x %x %x|%x %x %x %x %t\n",
							w.Name, w.N, step, sc, chunk, workers,
							res.WallNs, res.WorkNs, res.BusyNs, res.Chunks, res.Deals, res.Workers,
							v.WallNs, v.ImbalanceFrac, v.BarrierFrac, v.SyncFrac, v.BudgetPass)
						cases++
					}
				}
			}
		}
	}
	if cases != 3920 {
		t.Fatalf("digest grid has %d cases, want 3920", cases)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != simStepDigest {
		t.Fatalf("Sim.Step digest %s, want %s", got, simStepDigest)
	}
}
