package sched

import "fmt"

// PlateauGrant returns the processor grant for a job with m units of
// loop-level parallelism when avail processors are free: the smallest
// processor count delivering the best stair-step speedup reachable
// within avail. Equivalently, it rounds p = min(m, avail) down to the
// left edge of its plateau:
//
//	k = ceil(m/p)            // max units per processor (Table 3)
//	grant = ceil(m/k)        // fewest processors achieving that k
//
// The grant is never off-plateau — ceil(m/grant) < ceil(m/(grant-1))
// for every grant > 1 — so no granted processor is wasted: by the
// paper's model, StairStepSpeedup(m, grant) equals
// StairStepSpeedup(m, min(m, avail)) exactly, and the avail-grant
// processors left in the pool are free to serve other jobs. avail <= 0
// returns 0 (nothing to grant).
//
// It is the one grant rule of the system: the node scheduler grants
// processors to jobs with it, and the cluster coordinator grants worker
// daemons to a sharded multi-zone solve with it (m the zone count). The
// argument is scale-free — ceil division governs zones per worker and
// units per processor alike.
func PlateauGrant(m, avail int) int {
	if m < 1 {
		panic(fmt.Sprintf("sched: PlateauGrant needs m >= 1, got %d", m))
	}
	if avail <= 0 {
		return 0
	}
	p := m
	if avail < p {
		p = avail
	}
	k := (m + p - 1) / p
	return (m + k - 1) / k
}

// NextLowerPlateau returns the largest plateau grant strictly below the
// current grant for a job with m units of parallelism, or 0 if the
// current grant is already 1 (nothing left to give back). It is the
// shrink step the scheduler proposes when the queue is blocked: the
// victim drops exactly one stair-step, the smallest sacrifice of its
// own speedup that frees processors for the queue head.
func NextLowerPlateau(m, granted int) int {
	if granted <= 1 {
		return 0
	}
	return PlateauGrant(m, granted-1)
}
