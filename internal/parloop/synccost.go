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
// the average cost of one synchronization event. regions is the number
// of empty regions to execute (values below 1 are raised to 1).
//
// The regions run back to back, so the helpers never park between
// them: the value is the hot-path floor of a sync, the cost inside a
// long multi-region step. A region opened after its helpers have idled
// (every region of a short served job) costs more; BenchmarkColdFork
// measures that case, and model.ForkCycles, not this value, is the
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

// MeasureBarrierCost times bare barriers inside a single open region,
// the cheaper synchronization available to merged loop phases
// (Example 2). For a one-worker team the barrier is free and the
// returned PerSync is the loop overhead only.
func MeasureBarrierCost(t *Team, barriers int) SyncCostStats {
	if barriers < 1 {
		barriers = 1
	}
	var total time.Duration
	t.Region(func(ctx *WorkerCtx) {
		ctx.Barrier()
		var start time.Time
		if ctx.ID() == 0 {
			start = time.Now()
		}
		for i := 0; i < barriers; i++ {
			ctx.Barrier()
		}
		if ctx.ID() == 0 {
			total = time.Since(start)
		}
	})
	return SyncCostStats{
		Workers: t.Workers(),
		Regions: barriers,
		Total:   total,
		PerSync: total / time.Duration(barriers),
	}
}
