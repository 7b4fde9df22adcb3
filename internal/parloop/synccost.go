package parloop

import (
	"time"
)

// SyncCostStats summarizes a measurement of the team's fork-join
// synchronization cost — the quantity the paper reports as ranging
// "from 2,000 to 1-million cycles (or more)" depending on machine and
// load (§3), and the input to the Table 1 minimum-work criterion.
type SyncCostStats struct {
	Workers int
	Regions int           // regions timed
	Total   time.Duration // wall clock for all regions
	PerSync time.Duration // Total / Regions
}

// Cycles converts the per-synchronization cost to processor cycles at
// the given clock rate in MHz.
func (s SyncCostStats) Cycles(clockMHz float64) float64 {
	return s.PerSync.Seconds() * clockMHz * 1e6
}

// MeasureSyncCost times empty fork-join regions on the team and returns
// the average wall time of one. regions is the number of empty regions
// to execute (values below 1 are raised to 1).
//
// Back to back, the regions find their helpers still polling (within
// blockTime), so the value is a running team's fork and join: 1–2 µs
// on a 2-vCPU x86-64 host. A region forked after a longer idle gap
// wakes a parked helper, which starts 50–100 µs late (DESIGN §12), so
// this reading is a floor, and model.ForkCycles, not this value, is the
// bar the scheduler applies.
func MeasureSyncCost(t *Team, regions int) SyncCostStats {
	if regions < 1 {
		regions = 1
	}
	// Warm up the team (first region pays goroutine scheduling noise).
	for i := 0; i < 3; i++ {
		t.fork(func(int) {})
	}
	start := time.Now()
	for i := 0; i < regions; i++ {
		t.fork(func(int) {})
	}
	total := time.Since(start)
	return SyncCostStats{
		Workers: t.Workers(),
		Regions: regions,
		Total:   total,
		PerSync: total / time.Duration(regions),
	}
}
