// Quickstart: parallelizing a vectorizable loop nest with loop-level
// parallelism, the way the paper does it.
//
// The nest below is Example 1 from the paper: a triply nested loop with
// no dependencies in any direction. Vectorization would target the
// inner (J) loop; loop-level parallelism targets the OUTER (L) loop so
// that one synchronization event covers a whole zone of work (Table 2's
// "outer loop" row).
//
// Run:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/model"
	"repro/internal/parloop"
)

const (
	lmax, kmax, jmax = 64, 64, 64
)

func main() {
	workers := runtime.GOMAXPROCS(0)
	team := parloop.NewTeam(workers)
	defer team.Close()
	fmt.Printf("team of %d workers\n\n", workers)

	a := make([]float64, lmax*kmax*jmax)
	b := make([]float64, lmax*kmax*jmax)
	for i := range b {
		b[i] = float64(i%97) / 97
	}

	// Example 1: parallelize the outer loop. The body is the two inner
	// loops — vector-friendly unit stride, one parallel region total.
	start := time.Now()
	team.For(lmax, func(l int) {
		for k := 0; k < kmax; k++ {
			base := (l*kmax + k) * jmax
			for j := 0; j < jmax; j++ {
				v := b[base+j]
				a[base+j] = 2.5*v*v + 0.5*v + 1
			}
		}
	})
	fmt.Printf("outer-loop parallel nest: %v, %d sync events\n",
		time.Since(start).Round(time.Microsecond), team.SyncEvents())

	// A deterministic parallel reduction: same bits every run for a
	// fixed team size, so parallelization does not change convergence
	// checks.
	sum := parloop.SumFloat64(team, len(a), func(i int) float64 { return a[i] })
	fmt.Printf("checksum: %.10f\n\n", sum)

	// Apply the paper's Table 1 criterion with this host's cost of a
	// region on a running team (model.RegionNs, measured as the served
	// step pays it): how much work must a loop contain before
	// parallelizing it is worthwhile here?
	fmt.Printf("a region on a running team costs %v (model.RegionNs)\n", time.Duration(model.RegionNs))
	fmt.Printf("→ a loop needs ≥ %v of work to break even, ≥ %v to keep it under 1%%\n",
		time.Duration(model.MinWorkPerLoop(workers, model.RegionNs, 1)),
		time.Duration(model.MinWorkPerLoop(workers, model.RegionNs, model.OverheadBudget)))
	fmt.Printf("  (our nest holds ~%d flop-heavy iterations — compare Table 1)\n", lmax*kmax*jmax)

	// Example 2: merging two loops under one region halves the
	// synchronization events.
	team.ResetSyncEvents()
	team.Region(func(ctx *parloop.WorkerCtx) {
		ctx.For(len(a), func(i int) { a[i] += 1 })
		// No barrier needed: the second loop only touches indices the
		// same worker owns.
		ctx.For(len(a), func(i int) { a[i] *= 0.5 })
	})
	fmt.Printf("\ntwo merged loops: %d sync event(s) instead of 2\n", team.SyncEvents())
}
