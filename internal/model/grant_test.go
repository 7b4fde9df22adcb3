package model_test

import (
	"fmt"
	"testing"

	"repro/internal/euler"
	"repro/internal/f3d"
	"repro/internal/grid"
	"repro/internal/model"
	"repro/internal/sched"
)

// TestBenchmarkJobClassGrants pins M and the two-processor grant of
// every job class the end-to-end benchmark submits. Only serve_small's
// one-step jobs fall to one processor; every serve_mix and serve_solo
// class, and Paper1M, keeps its whole loop-level parallelism as M.
func TestBenchmarkJobClassGrants(t *testing.T) {
	f3dJob := func(j, k, l int) sched.Job {
		job, err := f3d.NewJob("f3d", f3d.DefaultConfig(grid.Single(j, k, l)), 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	synthetic := func(par int, work float64, syncs int) sched.Job {
		p := model.StepProfile{Loops: []model.LoopClass{{WorkCycles: work, Parallelism: par, SyncEvents: syncs}}}
		return sched.NewSyntheticJob("synthetic", p, 1, 1)
	}
	paper, err := f3d.NewJob("1M", f3d.DefaultConfig(grid.Paper1M()), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	type class struct {
		name     string
		job      sched.Job
		m, grant int
	}
	classes := []class{
		{"f3d 9x9x9 (serve_small)", f3dJob(9, 9, 9), 1, 1},
		{"f3d 17x13x11 (serve_mix)", f3dJob(17, 13, 11), 11, 2},
		{"f3d 33x27x25", f3dJob(33, 27, 25), 25, 2},
		{"f3d 41x33x29", f3dJob(41, 33, 29), 31, 2},
		{"f3d 49x37x31", f3dJob(49, 37, 31), 35, 2},
		{"euler 64 (serve_small)", euler.NewSweepJob("euler", 64, 1), 1, 1},
		{"euler 4096", euler.NewSweepJob("euler", 4096, 1), 4096, 2},
		{"euler 8192", euler.NewSweepJob("euler", 8192, 1), 8192, 2},
		{"euler 16384", euler.NewSweepJob("euler", 16384, 1), 16384, 2},
		{"synthetic (4, 1000) (serve_small)", synthetic(4, 1000, 1), 1, 1},
		{"Paper1M", paper, 73, 2},
	}
	for par := 2; par <= 8; par++ {
		classes = append(classes, class{fmt.Sprintf("synthetic (%d, 2e7, 4 syncs)", par), synthetic(par, 2e7, 4), par, 2})
	}
	for _, c := range classes {
		m := c.job.Parallelism()
		if m != c.m {
			t.Errorf("%s: M = %d, want %d", c.name, m, c.m)
		}
		if g := sched.PlateauGrant(m, 2); g != c.grant {
			t.Errorf("%s: PlateauGrant(%d, 2) = %d, want %d", c.name, m, g, c.grant)
		}
	}
}
