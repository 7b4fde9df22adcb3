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
//	     [-job-timeout D] [-trace] [-trace-buf N]
//
// Endpoints:
//
//	POST   /jobs             submit a job (JSON body; see server.go)
//	GET    /jobs             list all jobs, cluster shards included
//	GET    /jobs/{id}        one job's status
//	GET    /jobs/{id}/result outcome as HTTP status (200 done, 500
//	                         failed, 504 timed out, 409 canceled); waits
//	                         for the job up to 10 s, then 202 still in flight
//	POST   /jobs/{id}/cancel cancel; the record stays readable
//	GET    /metrics          Prometheus text: counters, gauges, grant
//	                         histogram, tracer accounting
//	GET    /trace            sync-event trace ring as JSONL; ?since=
//	                         resumes from the X-Trace-Next cursor
//	                         (internal/obs/serve), the one way the
//	                         ring is read
//	POST   /trace/enable     toggle tracing ({"enabled":bool,
//	                         "reset":bool}; empty body enables)
//	GET    /analyze          trace-analysis report (internal/obs/analyze;
//	                         ?label= stamps it for diffing)
//	GET    /dash             HTML dashboard over /analyze, with a live
//	                         tail that polls /trace?since=
//	GET    /healthz          readiness: queue depth, processors in
//	                         use, hosted shard count; 503 while
//	                         draining so coordinators stop routing
//	                         new work here
//	POST   /shards/create    cluster shard API: host one shard of a
//	POST   /shards/step      sharded multi-zone solve as a job, driven
//	POST   /shards/release   in lockstep by f3dc. create and step take
//	                         and answer a binary frame (JSON header +
//	                         raw plane/snapshot blobs; layout in
//	                         internal/cluster/frame.go), capped at
//	                         256 MiB -> 413, malformed or JSON -> 400;
//	                         release is plain JSON; a shard whose job
//	                         has ended -> 410
//
// Every f3d job runs the solver's one served step shape,
// f3d.DefaultShape(): rhs and both sweeps split across the granted
// team, the boundary conditions serial. A job granted a second
// processor holds several times a region's cost in each split region,
// so no other shape would be faster. /analyze judges a traced loop by
// Table 1 at break-even with the host's measured cost of a region on a
// running team, model.RegionNs; there is no setting for it.
//
// Jobs may carry a run deadline: -job-timeout sets the default and a
// submission's timeout_sec overrides it (negative opts out; a positive
// value must lie in [1e-9, 1e9] seconds). A shard's is -job-timeout
// from its last command; between commands it holds no processor. A job past its deadline is canceled, reported
// as timed-out, and its processors return to the pool. A submission
// that finds the queue full is answered 429 at once.
//
// On SIGINT/SIGTERM the daemon flips /healthz to 503 and drains the
// scheduler (waits for queued and running jobs, live shards included,
// up to -drain-timeout, refusing new submissions and shard creates but
// still serving status reads and shard steps), then cancels whatever
// remains, closes the listener and exits.
//
// The trace ring holds -trace-buf events and is allocated when tracing
// is first enabled (-trace at start, or POST /trace/enable): a daemon
// that never traces never touches its pages.
//
// Trace events carry no node tag. A coordinator that reads this
// daemon's /trace into a fleet timeline tags them with the ID it
// registered the daemon under (f3dc: the worker URL).
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
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "max wait for in-flight jobs on shutdown")
	jobTimeout := flag.Duration("job-timeout", 0, "default run deadline per job (0 = none; timeout_sec overrides)")
	traceBuf := flag.Int("trace-buf", 65536, "sync-event trace ring capacity (events), allocated when tracing is first enabled")
	trace := flag.Bool("trace", false, "start with sync-event tracing enabled")
	flag.Parse()

	tracer := obs.NewTracer(*traceBuf, simclock.Real{})
	if *trace {
		tracer.Enable()
	}
	s := sched.New(sched.Config{
		Procs:          *procs,
		QueueDepth:     *queue,
		Clock:          simclock.Real{},
		DefaultTimeout: *jobTimeout,
		Tracer:         tracer,
		Metrics:        obs.NewRegistry(),
	})
	srv := cluster.NewHTTPServer(*addr, newServer(s, serverConfig{clock: simclock.Real{}}))

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
	log.Printf("f3dd: exit: %d completed, %d failed, %d canceled, %d timed out, %d rejected, peak %d/%d procs",
		m.Completed, m.Failed, m.Canceled, m.TimedOut, m.Rejected, m.MaxInUse, m.Procs)
}
