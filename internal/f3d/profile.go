package f3d

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/model"
)

// Per-phase flop accounting used to build performance-model profiles.
// The residual check and boundary conditions are the serial work whose
// Amdahl cost the paper discusses (§3: "the more time is spent in
// serial code, the harder it is to show benefit from using larger
// numbers of processors").
const (
	// flopsBCPerFacePoint is the boundary-condition work per face point.
	flopsBCPerFacePoint = 10
	// flopsResidualPerPoint is the serial residual-norm accumulation.
	flopsResidualPerPoint = 11
)

// StepProfileFor returns the per-time-step execution profile of the
// cache-tuned solver on the given case under the given step shape, in
// units of floating-point operations (callers scale to cycles with
// model.StepProfile.Scale using a machine's cycles per delivered flop).
// A phase is modelled parallel exactly when the step driver's lowering
// (lowerShape) splits it across the team; how phases group into regions
// moves synchronization, not work, and is not modelled. The loop classes
// mirror the solver's phases:
//
//   - rhs-jk:   J+K RHS passes, partitioned over L     (1 sync/zone)
//   - rhs-l:    L RHS pass, partitioned over K         (1 sync/zone)
//     (one region with a barrier between them, split when sh.RHS is)
//   - sweep-jk: J+K implicit sweeps, partitioned over L (1 sync/zone)
//   - sweep-l:  L sweep + update, partitioned over K   (1 sync/zone)
//   - bc:       boundary conditions (serial by default)
//   - residual: serial residual accumulation
func StepProfileFor(c grid.Case, sh StepShape) model.StepProfile {
	var sp model.StepProfile
	split := lowerShape(sh).split
	for i := range c.Zones {
		z := &c.Zones[i]
		interior := float64((z.JMax - 2) * (z.KMax - 2) * (z.LMax - 2))
		face := float64(z.Points()) - interior
		parL := z.LMax - 2
		parK := z.KMax - 2

		rhsJK := interior * float64(flopsRHSPerPoint) * 2 / 3
		rhsL := interior * float64(flopsRHSPerPoint) * 1 / 3
		sweepJK := interior * float64(flopsSweepPerPoint) * 2
		sweepL := interior * (float64(flopsSweepPerPoint) + flopsUpdatePerPoint)
		bc := face * flopsBCPerFacePoint
		resid := interior * flopsResidualPerPoint

		add := func(name string, work float64, par int, on bool) {
			if on {
				sp.Loops = append(sp.Loops, model.LoopClass{
					Name:        fmt.Sprintf("%s/%s", z.Name, name),
					WorkCycles:  work,
					Parallelism: par,
					SyncEvents:  1,
				})
			} else {
				sp.SerialCycles += work
			}
		}
		add("rhs-jk", rhsJK, parL, split[phRHSJK])
		add("rhs-l", rhsL, parK, split[phRHSL])
		add("sweep-jk", sweepJK, parL, split[phSweepJK])
		add("sweep-l", sweepL, parK, split[phSweepL])
		add("bc", bc, z.LMax, split[phBC])
		sp.SerialCycles += resid
	}
	return sp
}

// StepProfileF3D returns a profile shaped like the original F3D's
// partially flux-split scheme rather than like this package's
// diagonalized ADI: the two key implicit loops have data dependencies
// in two of three directions (§4), leaving only the J dimension as
// loop-level parallelism, so every major phase's available parallelism
// is the zone's J extent. This is the profile that reproduces the
// paper's observed plateau anchors (jumps near J/2 ≈ 44 for the
// 1-million-point case and ≈ 87 for the 59-million-point case).
//
// workPerPoint is the single-processor work per grid point per time
// step in the profile's work units (use cycles derived from the paper's
// measured single-processor rates when simulating Table 4), and
// serialFrac the fraction of it that stays serial (boundary conditions
// plus residual bookkeeping).
func StepProfileF3D(c grid.Case, workPerPoint, serialFrac float64) model.StepProfile {
	if workPerPoint <= 0 {
		panic(fmt.Sprintf("f3d: StepProfileF3D workPerPoint must be > 0, got %g", workPerPoint))
	}
	if serialFrac < 0 || serialFrac >= 1 {
		panic(fmt.Sprintf("f3d: StepProfileF3D serialFrac must be in [0,1), got %g", serialFrac))
	}
	var sp model.StepProfile
	for i := range c.Zones {
		z := &c.Zones[i]
		work := float64(z.Points()) * workPerPoint
		serial := work * serialFrac
		par := work - serial
		// F3D's per-zone step is a handful of large parallel loops; the
		// paper's Example 3 hoisting leaves roughly one synchronization
		// per major routine per zone. The two key implicit loops with
		// dependencies in two of three directions are J-limited; the
		// remaining explicit/RHS loops parallelize over K or L. The mix
		// is what produces the paper's gentle rise across the J-plateau
		// (the K- and L-limited loops keep stepping while the J-limited
		// loops are flat).
		regions := []struct {
			name string
			par  int
			frac float64
		}{
			{"implicit-a", z.JMax, 0.25},
			{"implicit-b", z.JMax, 0.25},
			{"explicit-k", z.KMax, 0.25},
			{"explicit-l", z.LMax, 0.25},
		}
		for _, r := range regions {
			sp.Loops = append(sp.Loops, model.LoopClass{
				Name:        fmt.Sprintf("%s/%s", z.Name, r.name),
				WorkCycles:  par * r.frac,
				Parallelism: r.par,
				SyncEvents:  1,
			})
		}
		sp.SerialCycles += serial
	}
	return sp
}
