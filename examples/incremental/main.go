// Incremental reproduces the paper's §4 parallelization workflow on the
// F3D solver: profile the serial code to find the expensive loops, ask
// the Table 1 criterion which are worth parallelizing, then parallelize
// them one phase at a time — validating after every stage that the
// solution is unchanged ("this allows one to alternate between
// parallelization and debugging").
//
// Run:
//
//	go run ./examples/incremental
package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/f3d"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/parloop"
)

const steps = 5

func main() {
	c := grid.Scaled(grid.Paper1M(), 0.30)
	cfg := f3d.DefaultConfig(c)
	fmt.Printf("case: %d zones, %d points\n\n", len(c.Zones), c.Points())

	// Stage 0: profile the serial solver phase by phase. A traced team
	// emits one phase span per zone and step group; serial, it emits
	// nothing else.
	prof := obs.NewTracer(steps*len(c.Zones)*5, nil)
	prof.Enable()
	one := parloop.NewTeam(1)
	defer one.Close()
	one.SetTracer(prof, "")
	serial := mustCache(cfg, f3d.CacheOptions{Team: one})
	defer serial.Close()
	f3d.InitPulse(serial, 0.02)
	for i := 0; i < steps; i++ {
		serial.Step()
	}
	if d := prof.Dropped(); d > 0 {
		fail("the profile's trace ring lost %d events", d)
	}
	entries := analyze.Analyze(prof.Events()).Ranked
	fmt.Println("serial profile (prof-style):")
	fmt.Print(analyze.FormatRanked(entries, 8))

	// Which loops clear the Table 1 bar on this machine? Its cost of a
	// region on a running team is model.RegionNs; at a nominal 1 GHz a
	// cycle is a nanosecond.
	workers := runtime.GOMAXPROCS(0)
	team := parloop.NewTeam(workers)
	defer team.Close()
	fmt.Printf("\nTable 1 advice (this host: region ≈ %v, %d workers):\n", time.Duration(model.RegionNs), workers)
	advise(entries, 1000, model.RegionNs, workers)

	// The same profile judged for a 64-processor Origin 2000, whose
	// synchronization events cost tens of thousands of cycles: the
	// cheap loops now fall below the Table 1 bar — the paper's reason
	// for leaving boundary conditions serial.
	sgi := machine.Origin2000R12K()
	fmt.Printf("\nTable 1 advice (simulated %s, 64 procs, sync %.0f cycles):\n",
		sgi.Name, sgi.SyncCostCycles(64))
	advise(entries, sgi.ClockMHz, sgi.SyncCostCycles(64), 64)

	// Stages 1..3: enable one phase at a time, checking the answer
	// against the serial run's.
	stages := []struct {
		name  string
		shape f3d.StepShape
	}{
		{"RHS only", f3d.StepShape{RHS: true}},
		{"+ J/K sweeps", f3d.StepShape{RHS: true, SweepJK: true}},
		{"+ L sweep (all)", f3d.DefaultShape()},
	}
	fmt.Printf("\nincremental parallelization (%d workers):\n", workers)
	for k, st := range stages {
		s := mustCache(cfg, f3d.CacheOptions{Team: team, Shape: &st.shape})
		f3d.InitPulse(s, 0.02)
		start := time.Now()
		for i := 0; i < steps; i++ {
			s.Step()
		}
		elapsed := time.Since(start)
		diff := f3d.MaxPointwiseDiff(serial, s)
		// The step profile's work is in flops, the unit model.ForkCycles
		// prices a fork in.
		sp := f3d.StepProfileFor(c, st.shape)
		pred := sp.PredictSpeedup(workers, model.ForkCycles)
		fmt.Printf("  stage %d (%-16s): %8v for %d steps, predicted speedup %.1fx, |Δanswer| = %g\n",
			k+1, st.name, elapsed.Round(time.Millisecond), steps, pred, diff)
		s.Close()
		if diff != 0 {
			fail("stage %d (%s) changed the answer by %g", k+1, st.name, diff)
		}
	}
	fmt.Println("\nanswer unchanged at every stage — the paper's validation loop in miniature.")
}

// advise applies the Table 1 criterion to each profiled loop: worth
// parallelizing on procs processors when one call holds at least
// model.MinWorkPerLoop cycles of work.
func advise(entries []analyze.Entry, clockMHz, syncCycles float64, procs int) {
	minWork := model.MinWorkPerLoop(procs, syncCycles, model.OverheadBudget)
	for _, e := range entries {
		cycles := e.Mean().Seconds() * clockMHz * 1e6
		verdict := "leave serial"
		if cycles >= minWork {
			verdict = "PARALLELIZE"
		}
		fmt.Printf("  %-28s %10.2e cycles/call  → %s\n", e.Name, cycles, verdict)
	}
}

// fail reports why the workflow stopped and exits 1.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "incremental: "+format+"\n", args...)
	os.Exit(1)
}

func mustCache(cfg f3d.Config, opts f3d.CacheOptions) *f3d.CacheSolver {
	s, err := f3d.NewCacheSolver(cfg, opts)
	if err != nil {
		panic(err)
	}
	return s
}
