// Command f3dd is the solver job daemon: an HTTP front end over the
// space-sharing scheduler in internal/sched. It accepts solver jobs
// (F3D time stepping, euler characteristic sweeps, synthetic
// model.StepProfile workloads), queues them with backpressure, and
// packs them onto a fixed processor budget using the paper's
// stair-step rule — every grant sits on an efficiency plateau of the
// parallelism its work pays for, never on the flat part of the stair
// where extra processors buy no speedup.
//
// Usage:
//
//	f3dd [-addr HOST:PORT] [-procs N] [-queue N] [-drain-timeout D]
//	     [-job-timeout D] [-submit-retries N] [-retry-backoff D]
//	     [-autopar] [-autopar-sync-cost CYCLES]
//	     [-trace] [-trace-buf N] [-node TAG]
//
// Endpoints:
//
//	POST   /jobs             submit a job (JSON body; see server.go)
//	GET    /jobs             list all jobs
//	GET    /jobs/{id}        one job's status
//	GET    /jobs/{id}/plan   auto-parallelization plan derived from
//	                         the job's phase trace, with per-loop
//	                         machine-checkable rationale (404 unless
//	                         the daemon runs -autopar; 409 until the
//	                         job has traced evidence)
//	GET    /jobs/{id}/result outcome as HTTP status (200 done, 500
//	                         failed, 504 timed out, 409 canceled,
//	                         202 still in flight)
//	POST   /jobs/{id}/cancel cancel; the record stays readable
//	GET    /metrics          Prometheus text: counters, gauges, grant
//	                         histogram, tracer accounting
//	GET    /trace            sync-event trace ring as JSONL; ?since=
//	                         resumes from a cursor (internal/obs/serve)
//	GET    /trace/stream     SSE live tail of the same ring
//	POST   /trace/enable     toggle tracing ({"enabled":bool,
//	                         "reset":bool}; empty body enables)
//	GET    /analyze          trace-analysis report (internal/obs/analyze;
//	                         clock_ghz, sync_cost_cycles, budget, label)
//	GET    /dash             HTML dashboard over /analyze and the tail
//	GET    /healthz          readiness: queue depth, processors in
//	                         use, hosted shard count; 503 while
//	                         draining so coordinators stop routing
//	                         new work here
//	POST   /shards/create    cluster shard API: host one shard of a
//	POST   /shards/step      sharded multi-zone solve, driven in
//	POST   /shards/release   lockstep by f3dc. create and step take and
//	                         answer a binary frame (JSON header + raw
//	                         plane/snapshot blobs; layout in
//	                         internal/cluster/frame.go), capped at
//	                         256 MiB -> 413, malformed or JSON -> 400;
//	                         release is plain JSON
//
// With -autopar every f3d submission runs phase-traced under a prefix
// of its own ("<name>#<n>"), and the daemon derives an evidence-driven
// auto-parallelization plan from the run's trace
// (internal/autopar/pipeline): GET /jobs/{id}/plan serves the per-loop
// decisions with their rationale, and a new submission carrying
// plan_from reruns the case with the plan lowered onto the solver's
// step shape — run N's evidence reconfigures run N+1 without changing
// the answer.
//
// Jobs may carry a run deadline: -job-timeout sets the default and a
// submission's timeout_sec overrides it (negative opts out). A job
// past its deadline is canceled, reported as timed-out, and its
// processors return to the pool. Queue-full submissions are retried
// -submit-retries times with doubling -retry-backoff before the
// client sees 429.
//
// On SIGINT/SIGTERM the daemon flips /healthz to 503 and drains the
// scheduler (waits for queued and running jobs up to -drain-timeout,
// refusing new submissions but still serving status reads and shard
// steps), then cancels whatever remains, closes the listener and
// exits.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/simclock"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address")
	procs := flag.Int("procs", 0, "processor budget shared across jobs (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "queued-job limit; submits beyond it get HTTP 429")
	autopar := flag.Bool("autopar", false, "phase-trace f3d jobs and serve evidence-driven plans on /jobs/{id}/plan")
	autoparSync := flag.Float64("autopar-sync-cost", 0, "planner sync cost in cycles, a Table 1 column (0 = model default)")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "max wait for in-flight jobs on shutdown")
	jobTimeout := flag.Duration("job-timeout", 0, "default run deadline per job (0 = none; timeout_sec overrides)")
	submitRetries := flag.Int("submit-retries", 3, "in-handler retries for queue-full submissions before 429")
	retryBackoff := flag.Duration("retry-backoff", 50*time.Millisecond, "first retry wait; doubles per attempt")
	traceBuf := flag.Int("trace-buf", 65536, "sync-event trace ring capacity (events)")
	trace := flag.Bool("trace", false, "start with sync-event tracing enabled")
	node := flag.String("node", "", "node tag on this daemon's trace events (default: the listen address)")
	flag.Parse()
	if *node == "" {
		*node = *addr
	}

	tracer := obs.NewTracer(*traceBuf, simclock.Real{})
	if *trace {
		tracer.Enable()
	}
	schedCfg := sched.Config{
		Procs:          *procs,
		QueueDepth:     *queue,
		Clock:          simclock.Real{},
		DefaultTimeout: *jobTimeout,
		Tracer:         tracer,
		Metrics:        obs.NewRegistry(),
	}
	s := sched.New(schedCfg)
	srv := cluster.NewHTTPServer(*addr, newServer(s, serverConfig{
		clock:           simclock.Real{},
		submitRetries:   *submitRetries,
		retryBackoff:    *retryBackoff,
		node:            *node,
		autopar:         *autopar,
		autoparSyncCost: *autoparSync,
	}))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("f3dd: serving on %s (procs=%d queue=%d)", *addr, s.Procs(), *queue)

	select {
	case err := <-errc:
		log.Fatalf("f3dd: %v", err)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills us
	log.Printf("f3dd: signal received, draining (timeout %s)", *drainTimeout)

	// Drain the scheduler BEFORE shutting down HTTP: the listener
	// stays up through the drain so /healthz answers 503 "draining"
	// (coordinators stop routing here) and in-flight cluster solves
	// can still finish their lockstep shard steps.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		log.Printf("f3dd: drain: %v; canceling remaining jobs", err)
	}
	s.Close()
	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShutdown()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("f3dd: http shutdown: %v", err)
	}
	m := s.Metrics()
	log.Printf("f3dd: exit: %d completed, %d failed, %d canceled, %d rejected, peak %d/%d procs",
		m.Completed, m.Failed, m.Canceled, m.Rejected, m.MaxInUse, m.Procs)
}
