// Scheduler demonstrates the space-sharing job scheduler on a ragged
// mix of jobs — the daemon's allocation policy run as a batch, without
// HTTP. A handful of synthetic solver workloads with very different
// loop-level parallelism (M from 2 to 15, the paper's Table 3 shape)
// are submitted at once against a small processor budget.
//
// The program prints two tables:
//
//  1. The allocation argument: for each distinct M in the mix, the
//     naive grant min(M, procs) versus the plateau grant — both reach
//     the same stair-step speedup, but the plateau grant releases the
//     processors that sit on the flat part of the stair, where
//     ceil(M/P) does not change. Those released processors are what
//     lets the scheduler run several jobs at once.
//
//  2. The observed run: per job, requested M, granted P (grown or
//     shrunk while running as the queue drained), the stair-step
//     speedup M/ceil(M/P) at the final grant, sync events, and queue
//     wait versus run time.
//
// Run:
//
//	go run ./examples/scheduler [-procs N]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/model"
	"repro/internal/sched"
)

// job describes one synthetic workload in the mix: M units of
// loop-level parallelism and a per-step work budget in cycles.
type job struct {
	name  string
	m     int
	steps int
	work  float64
}

func main() {
	procs := flag.Int("procs", 6, "processor budget to space-share")
	flag.Parse()

	// A ragged mix: big and small M, long and short jobs, submitted
	// back-to-back so the queue actually forms.
	mix := []job{
		{"wing", 15, 40, 3e6},
		{"store", 9, 30, 2e6},
		{"bc-sweep", 2, 20, 1e6},
		{"probe", 3, 15, 5e5},
		{"body", 12, 30, 2e6},
		{"patch", 5, 20, 1e6},
		{"trace", 2, 10, 5e5},
	}

	fmt.Printf("Plateau allocation versus naive allocation on %d processors\n", *procs)
	fmt.Printf("(speedup is the stair-step M/ceil(M/P); both grants reach the same step)\n\n")
	fmt.Printf("%6s  %12s  %14s  %8s  %s\n", "M", "naive grant", "plateau grant", "speedup", "released")
	seen := map[int]bool{}
	for _, j := range mix {
		if seen[j.m] {
			continue
		}
		seen[j.m] = true
		naive := j.m
		if *procs < naive {
			naive = *procs
		}
		p := sched.PlateauGrant(j.m, *procs)
		fmt.Printf("%6d  %12d  %14d  %8.2f  %d procs\n",
			j.m, naive, p, model.StairStepSpeedup(j.m, p), naive-p)
	}

	s := sched.New(sched.Config{Procs: *procs, QueueDepth: len(mix)})
	defer s.Close()

	type submitted struct {
		job
		h *sched.Handle
	}
	start := time.Now()
	var subs []submitted
	for _, j := range mix {
		profile := model.StepProfile{
			Loops: []model.LoopClass{{
				Name:        j.name,
				WorkCycles:  j.work,
				Parallelism: j.m,
				SyncEvents:  1,
			}},
			SerialCycles: j.work / 50,
		}
		h, err := s.Submit(sched.NewSyntheticJob(j.name, profile, j.steps, 1))
		if err != nil {
			log.Fatalf("submit %s: %v", j.name, err)
		}
		subs = append(subs, submitted{j, h})
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	for _, sub := range subs {
		if err := sub.h.Wait(ctx); err != nil {
			log.Fatalf("job %s: %v", sub.name, err)
		}
	}
	elapsed := time.Since(start)

	fmt.Printf("\nObserved run (%d jobs, budget %d procs, grow and shrink-to-admit on)\n\n", len(mix), *procs)
	fmt.Printf("%3s  %-8s  %4s  %7s  %8s  %7s  %5s  %9s  %9s\n",
		"id", "name", "M", "granted", "speedup", "resizes", "sync", "wait", "run")
	for _, sub := range subs {
		st := sub.h.Status()
		fmt.Printf("%3d  %-8s  %4d  %7d  %8.2f  %7d  %5d  %8.0fms  %8.0fms\n",
			st.ID, st.Name, st.Requested, st.Granted, st.Speedup,
			st.Resizes, st.SyncEvents, st.WaitSec*1000, st.RunSec*1000)
	}

	m := s.Metrics()
	fmt.Printf("\n%d jobs in %.2fs; peak %d/%d procs in use; %d grant resizes; %d sync events\n",
		m.Completed, elapsed.Seconds(), m.MaxInUse, m.Procs, m.Resizes, m.SyncEvents)
}
