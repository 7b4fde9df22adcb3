package euler

import (
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/sched"
)

// sweepWorkPerPoint is one point's sweep in profile cycles (f3d flops):
// BenchmarkSweepPoint's ns/point times the served f3d step's
// one-processor flop rate on the same host (EXPERIMENTS has both).
const sweepWorkPerPoint = 1050

// SweepJob is a schedulable characteristic-analysis sweep: a batch of
// varied flow states swept repeatedly, each sweep rebuilding every
// point's directional eigensystem, flux and spectral radius on the
// granted team. It is the euler-level analogue of one solver sweep —
// pure per-point work with one fork-join region per sweep — and its
// checksum is a serial fold over a point-indexed array, so the result
// is bit-identical for every team size and across mid-run grant
// resizes.
type SweepJob struct {
	name   string
	points int
	sweeps int
	hook   func(sweep int) error

	out []float64
	sum float64
}

// NewSweepJob builds a sweep job over the given number of points and
// sweeps. The point count is the sweep's loop-level parallelism.
func NewSweepJob(name string, points, sweeps int) *SweepJob {
	if points < 1 || sweeps < 1 {
		panic(fmt.Sprintf("euler: NewSweepJob needs points, sweeps >= 1, got %d, %d", points, sweeps))
	}
	return &SweepJob{name: name, points: points, sweeps: sweeps}
}

// WithStepHook installs a callback invoked after each sweep's
// checkpoint, before the sweep's parallel region. A non-nil return
// aborts the run with that error. Fault-injection harnesses use this
// to fail, hang or stall a real sweep job at a chosen sweep; it must
// not be called once the job is submitted.
func (j *SweepJob) WithStepHook(hook func(sweep int) error) *SweepJob {
	j.hook = hook
	return j
}

// Name implements sched.Job.
func (j *SweepJob) Name() string { return j.name }

// Parallelism implements sched.Job: the point count once a sweep's work
// pays for a fork, else 1 (MaxParallelism of a one-region profile).
func (j *SweepJob) Parallelism() int {
	sp := model.StepProfile{Loops: []model.LoopClass{{
		Name: "sweep", WorkCycles: float64(j.points) * sweepWorkPerPoint, Parallelism: j.points, SyncEvents: 1,
	}}}
	return sp.MaxParallelism()
}

// state returns the i-th point's conserved state: a smooth, strictly
// physical variation around a subsonic reference.
func (j *SweepJob) state(i int) linalg.Vec5 {
	t := float64(i) / float64(j.points)
	p := Prim{
		Rho: 1 + 0.3*math.Sin(7*t),
		U:   0.4 + 0.2*math.Cos(3*t),
		V:   0.1 * math.Sin(5*t),
		W:   0.05 * math.Cos(11*t),
		P:   1 + 0.25*math.Sin(2*t),
	}
	return p.Cons()
}

// Run implements sched.Job.
func (j *SweepJob) Run(g *sched.Grant) error {
	n := j.points
	j.out = make([]float64, n)
	// Unit sweep direction with all three metric components live.
	kx, ky, kz := 1/math.Sqrt(3), 1/math.Sqrt(3), 1/math.Sqrt(3)
	for s := 0; s < j.sweeps; s++ {
		if err := g.Checkpoint(); err != nil {
			return err
		}
		if j.hook != nil {
			if err := j.hook(s); err != nil {
				return err
			}
		}
		phase := float64(s + 1)
		g.Team().ForChunked(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				u := j.state(i)
				e := EigensystemDir(kx, ky, kz, u)
				f := FluxDir(kx, ky, kz, u)
				sr := SpectralRadiusDir(kx, ky, kz, u)
				v := sr
				for c := 0; c < NC; c++ {
					v += e.Lambda[c] + f[c]
				}
				// Feed the previous sweep's value back in so every sweep
				// matters to the final checksum.
				j.out[i] = v*phase + j.out[i]/phase
			}
		})
		// Serial, order-fixed fold: deterministic for any team size.
		sum := 0.0
		for _, v := range j.out {
			sum += v
		}
		j.sum = sum
	}
	return nil
}

// Checksum returns the final sweep's checksum. Valid after Run
// returns nil; it depends only on (points, sweeps), never on the team
// size or resize history.
func (j *SweepJob) Checksum() float64 { return j.sum }
