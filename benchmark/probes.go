package main

// In-process probes: timings of a short list of public calls, one layer
// at a time, so a layer's own cost can be read beside the end-to-end
// numbers. This is the benchmark's only file that imports the program's
// packages, and it uses only the symbols listed here — none of the ones
// ROADMAP items 2-4 schedule for deletion — so refactors move the
// numbers instead of breaking the build:
//
//	grid.Single
//	f3d.DefaultConfig, f3d.NewJob, (*f3d.Job).History
//	sched.New, sched.Config{Procs}, (*Scheduler).Submit, (*Scheduler).Close,
//	sched.NewFuncJob, (*Handle).Wait, (*Handle).Status
//	parloop.NewTeam, (*Team).For, (*Team).Resize, (*Team).Close
//	linalg.SolveTridiag, linalg.SolveTridiag5, linalg.SolvePentadiag5
//	euler.FluxDir, euler.EigensystemDirInto

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/euler"
	"repro/internal/f3d"
	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/parloop"
	"repro/internal/sched"
)

// timeMedian runs fn reps times and returns the median seconds per run.
func timeMedian(reps int, fn func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		t0 := time.Now()
		fn()
		ts[i] = time.Since(t0).Seconds()
	}
	return median(ts)
}

var probeSink float64

// runProbes fills in every probe metric. p is the processor count the
// daemon is served with.
func runProbes(m metricSet, p int) error {
	probeSched(m, p)
	probeParloop(m, p)
	probeKernels(m)
	return probeF3D(m, p)
}

// probeSched: the scheduler's fixed cost per job — submit a no-op job
// to an idle scheduler and wait for it.
func probeSched(m metricSet, p int) {
	s := sched.New(sched.Config{Procs: p})
	defer s.Close()
	noop := func(*sched.Grant) error { return nil }
	const jobs = 200
	sec := timeMedian(5, func() {
		for i := 0; i < jobs; i++ {
			h, err := s.Submit(sched.NewFuncJob("noop", p, noop))
			if err == nil {
				_ = h.Wait(context.Background()) // a no-op job cannot fail
			}
		}
	})
	m.set("sched.job_overhead_us", sec/jobs*1e6)
}

// probeParloop: an empty parallel region on a P-worker team (fork, join
// and the region's synchronization with no work to hide them), the cost
// of starting and closing a team, and of resizing one.
func probeParloop(m metricSet, p int) {
	team := parloop.NewTeam(p)
	const regions = 2000
	sec := timeMedian(5, func() {
		for i := 0; i < regions; i++ {
			team.For(p, func(int) {})
		}
	})
	m.set("parloop.region_us", sec/regions*1e6)
	const resizes = 200
	sec = timeMedian(5, func() {
		for i := 0; i < resizes; i++ {
			team.Resize(1)
			team.Resize(p)
		}
	})
	m.set("parloop.resize_us", sec/(2*resizes)*1e6)
	team.Close()
	const teams = 200
	sec = timeMedian(5, func() {
		for i := 0; i < teams; i++ {
			parloop.NewTeam(p).Close()
		}
	})
	m.set("parloop.team_start_us", sec/teams*1e6)
}

// probeKernels: the scalar kernels under the solver, on in-cache data
// (n = 64 rows; each solve first restores its bands from a template,
// which is part of what is timed and the same for every version).
func probeKernels(m metricSet) {
	const n = 64
	const solves = 2000
	band := func(v float64) []float64 {
		b := make([]float64, n)
		for i := range b {
			b[i] = v + 0.01*float64(i%7)
		}
		return b
	}
	a0, b0, c0, d0 := band(-1), band(4), band(-1), band(1)
	a, b, c, d := band(0), band(0), band(0), band(0)
	sec := timeMedian(5, func() {
		for i := 0; i < solves; i++ {
			copy(a, a0)
			copy(b, b0)
			copy(c, c0)
			copy(d, d0)
			linalg.SolveTridiag(a, b, c, d)
		}
	})
	probeSink += d[0]
	m.set("linalg.tridiag_ns_row", sec/(solves*n)*1e9)

	lanes := func(v float64) (tmpl, work [linalg.Lanes][]float64) {
		for l := range tmpl {
			tmpl[l], work[l] = band(v+0.1*float64(l)), band(0)
		}
		return tmpl, work
	}
	restore := func(work, tmpl *[linalg.Lanes][]float64) {
		for l := range work {
			copy(work[l], tmpl[l])
		}
	}
	e5t, e5 := lanes(0.1)
	a5t, a5 := lanes(-1)
	b5t, b5 := lanes(6)
	c5t, c5 := lanes(-1)
	f5t, f5 := lanes(0.1)
	d5t, d5 := lanes(1)
	sec = timeMedian(5, func() {
		for i := 0; i < solves; i++ {
			restore(&a5, &a5t)
			restore(&b5, &b5t)
			restore(&c5, &c5t)
			restore(&d5, &d5t)
			linalg.SolveTridiag5(&a5, &b5, &c5, &d5, n)
		}
	})
	probeSink += d5[0][0]
	m.set("linalg.tridiag5_ns_row", sec/(solves*n*linalg.Lanes)*1e9)
	sec = timeMedian(5, func() {
		for i := 0; i < solves; i++ {
			restore(&e5, &e5t)
			restore(&a5, &a5t)
			restore(&b5, &b5t)
			restore(&c5, &c5t)
			restore(&f5, &f5t)
			restore(&d5, &d5t)
			linalg.SolvePentadiag5(&e5, &a5, &b5, &c5, &f5, &d5, n)
		}
	})
	probeSink += d5[0][0]
	m.set("linalg.pentadiag5_ns_row", sec/(solves*n*linalg.Lanes)*1e9)

	const points = 4096
	states := make([]linalg.Vec5, points)
	for i := range states {
		rho := 1 + 0.1*math.Sin(float64(i))
		u, v, w := 0.3+0.05*math.Cos(float64(i)), 0.1, -0.05
		p := 0.7 + 0.05*math.Sin(0.5*float64(i))
		states[i] = linalg.Vec5{rho, rho * u, rho * v, rho * w, p/0.4 + 0.5*rho*(u*u+v*v+w*w)}
	}
	sec = timeMedian(5, func() {
		for rep := 0; rep < 20; rep++ {
			for i := range states {
				f := euler.FluxDir(0.6, 0.8, 0, states[i])
				probeSink += f[0]
			}
		}
	})
	m.set("euler.flux_ns_point", sec/(20*points)*1e9)
	var eig euler.Eigen
	sec = timeMedian(5, func() {
		for rep := 0; rep < 20; rep++ {
			for i := range states {
				euler.EigensystemDirInto(&eig, 0.6, 0.8, 0, states[i])
				probeSink += eig.Lambda[0]
			}
		}
	})
	m.set("euler.eigen_ns_point", sec/(20*points)*1e9)
}

// f3dProbe runs one f3d job — built exactly as f3dd builds a
// kind:"f3d" submission — on an in-process scheduler with the given
// processor budget and returns its residual history and run time.
func f3dProbe(j, k, l, steps, procs int) ([]float64, float64, error) {
	job, err := f3d.NewJob("probe", f3d.DefaultConfig(grid.Single(j, k, l)), steps, 0.02)
	if err != nil {
		return nil, 0, err
	}
	s := sched.New(sched.Config{Procs: procs})
	defer s.Close()
	h, err := s.Submit(job)
	if err != nil {
		return nil, 0, err
	}
	if err := h.Wait(context.Background()); err != nil {
		return nil, 0, err
	}
	return job.History().Residuals, h.Status().RunSec, nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// probeF3D: step time of the served configuration at 1 and at P
// processors (33x27x25, the dims serve_solo and serve_mix share), the
// speedup between them, and the per-job cost outside the steps — the
// intercept of a 1-step and an 11-step job.
func probeF3D(m metricSet, p int) error {
	const steps = 11
	var t1, tp, one []float64
	for rep := 0; rep < 3; rep++ {
		_, s1, err := f3dProbe(33, 27, 25, steps, 1)
		if err != nil {
			return fmt.Errorf("f3d probe: %w", err)
		}
		_, sp, err := f3dProbe(33, 27, 25, steps, p)
		if err != nil {
			return fmt.Errorf("f3d probe: %w", err)
		}
		t1, tp = append(t1, s1), append(tp, sp)
		for i := 0; i < 3; i++ { // the 1-step job is short, so its time needs more samples
			_, s0, err := f3dProbe(33, 27, 25, 1, p)
			if err != nil {
				return fmt.Errorf("f3d probe: %w", err)
			}
			one = append(one, s0)
		}
	}
	m.set("f3d.step_ms_p1", median(t1)/steps*1e3)
	m.set("f3d.step_ms_pN", median(tp)/steps*1e3)
	m.set("f3d.par_speedup", median(t1)/median(tp))
	perStep := (median(tp) - median(one)) / (steps - 1)
	m.set("f3d.job_setup_ms", (median(one)-perStep)*1e3)
	return nil
}

// probeBitwise checks the paper's unchanged-convergence claim on the
// served configuration: for each zone size serve_solo submits, the
// residual history at P processors must equal the 1-processor history
// bit for bit. It runs the longest step count serve_solo uses (12); a
// shorter job executes the same steps and stops earlier, so its history
// is a prefix of this one and is covered by it.
func probeBitwise(p int) (bool, error) {
	steps := soloSteps[len(soloSteps)-1]
	for _, d := range soloDims {
		serial, _, err := f3dProbe(d.j, d.k, d.l, steps, 1)
		if err != nil {
			return false, fmt.Errorf("f3d bitwise probe: %w", err)
		}
		par, _, err := f3dProbe(d.j, d.k, d.l, steps, p)
		if err != nil {
			return false, fmt.Errorf("f3d bitwise probe: %w", err)
		}
		if len(serial) != steps || !sameBits(serial, par) {
			return false, nil
		}
	}
	return true, nil
}
