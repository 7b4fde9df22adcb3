package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"sync"
	"time"
)

// serveWorkload describes one closed-loop workload against a single
// f3dd: who sends what. The job stream itself comes from genBlock.
type serveWorkload struct {
	name    string
	clients int // closed-loop clients, each with one request in flight
	// itemArms makes the traced pass alternate its arms job by job
	// (possible with one client) instead of block by block.
	itemArms bool
	// daemonTraceArm adds the traced pass's third arm: the same jobs
	// against a second daemon started with -trace.
	daemonTraceArm bool
	// readsEvery is how many jobs a client runs between one GET
	// /metrics plus one GET /healthz (0: no reads).
	readsEvery int
	// roundBlocks is how many blocks of the job stream make one round.
	roundBlocks int
	// segment is how many jobs the clients run between two barriers at
	// which the host meter is read (one-client workloads read it before
	// every job instead). A round is cut into segments of at most this
	// many jobs.
	segment int
	warmup  []jobSpec
}

func serveWorkloads(p int) map[string]serveWorkload {
	small := smallBlock()[:30]
	return map[string]serveWorkload{
		"serve_solo": {
			name: "serve_solo", clients: 1, roundBlocks: 1, segment: 15, itemArms: true, daemonTraceArm: true,
			warmup: []jobSpec{f3dSpec(soloDims[0], 2), f3dSpec(soloDims[1], 2), f3dSpec(soloDims[2], 2)},
		},
		"serve_mix": {
			name: "serve_mix", clients: p, roundBlocks: 1, segment: 12,
			warmup: []jobSpec{f3dSpec(mixDims[0], 2), f3dSpec(mixDims[1], 2), f3dSpec(mixDims[2], 2),
				eulerSpec(16384, 20), syntheticSpec(8, 2e7, 1e6, 4, 5)},
		},
		"serve_small": {name: "serve_small", clients: p, roundBlocks: 8, segment: 1200, readsEvery: smallReadsEvery, warmup: small},
	}
}

// The traced pass runs every job once per arm, so the arms see the same
// work and differ only in what is recorded.
const (
	armPlain       = iota // latency and final status only, as in the untraced pass
	armSpans              // the benchmark records spans and per-call timings
	armDaemonTrace        // armSpans against the daemon started with -trace
)

// item is one job handed to a client.
type item struct {
	spec *jobSpec
	body []byte
	arm  int
	pair int // jobs compared across arms share a pair number
}

// roundItems lays out round idx: the workload's blocks for that round,
// each once per arm. The arm order rotates — per job when the arms
// alternate job by job, per block otherwise — so no arm always runs
// first.
func roundItems(w serveWorkload, seed int64, idx int, arms []int) []item {
	n := len(arms)
	var items []item
	for b := idx * w.roundBlocks; b < (idx+1)*w.roundBlocks; b++ {
		specs := genBlock(w.name, seed, b)
		bodies := make([][]byte, len(specs))
		for i := range specs {
			bodies[i], _ = json.Marshal(&specs[i]) // a struct of strings and numbers always encodes
		}
		if w.itemArms {
			for i := range specs {
				for a := 0; a < n; a++ {
					items = append(items, item{&specs[i], bodies[i], arms[(a+i+b)%n], b*len(specs) + i})
				}
			}
			continue
		}
		for a := 0; a < n; a++ {
			for i := range specs {
				items = append(items, item{&specs[i], bodies[i], arms[(a+b)%n], b})
			}
		}
	}
	return items
}

// round is the unit a rate is computed over: whole blocks of the job
// stream, run as closed-loop segments with a barrier after each (every
// client idle, host meter read). wall is the time the segments took,
// first submit to last result, without the meter readings between them.
type round struct {
	wall    float64 // seconds
	results []jobResult
}

// serveRun is everything one pass over a serve workload measured.
type serveRun struct {
	w      serveWorkload
	procs  int
	setupS []float64
	rounds []round
	reads  int // GET /metrics and /healthz issued beside the jobs
	badRds int // ... of which failed
	rec    *recorder
	host   *hostMeter

	rssWarm, rssEnd     float64
	preempts            float64
	traceEvents         float64 // trace_total delta on the -trace daemon
	scrapeMs, scrapeLen []float64
}

// results iterates over every job of the run.
func (r *serveRun) results() []*jobResult {
	var out []*jobResult
	for i := range r.rounds {
		for j := range r.rounds[i].results {
			out = append(out, &r.rounds[i].results[j])
		}
	}
	return out
}

// Host-meter samples per reading: one before every job of a one-client
// workload, a few at every barrier of the others, and a burst around
// each set-up.
const (
	hostSamplesPerJob     = 1
	hostSamplesPerBarrier = 2
	hostSamplesPerSetup   = 6
)

// runServe executes one pass: set the daemon up (several times in the
// untraced pass, to report a median set-up time), run closed-loop
// rounds until about `seconds` have been measured, and tear everything
// down. A run always holds whole rounds — the balanced multiset — and
// ends within about half a round of the requested duration.
func runServe(e *env, w serveWorkload, seed int64, seconds float64, traced bool) (*serveRun, error) {
	procs := benchProcs()
	hc := newHTTPClient(w.clients)
	defer hc.CloseIdleConnections()
	run := &serveRun{w: w, procs: procs, host: newHostMeter(w.name)}

	setup := func(name string, extra ...string) (*daemon, float64, error) {
		t0 := time.Now()
		d, err := e.startDaemon(name, hc, append([]string{"-procs", strconv.Itoa(procs)}, extra...)...)
		if err != nil {
			return nil, 0, err
		}
		for i := range w.warmup {
			spec := w.warmup[i]
			spec.Name = fmt.Sprintf("warmup-%d", i)
			body, _ := json.Marshal(&spec)
			if res := runJob(hc, d.url, &spec, body, nil); !res.ok {
				d.stop()
				return nil, 0, fmt.Errorf("%s: warm-up job %d: %s", w.name, i, res.err)
			}
		}
		return d, time.Since(t0).Seconds(), nil
	}

	setups := setupRepeats
	if traced {
		setups = 1
	}
	var main *daemon
	for i := 0; i < setups; i++ {
		run.host.sample(hostSamplesPerSetup)
		d, s, err := setup(w.name)
		if err != nil {
			return nil, err
		}
		run.setupS = append(run.setupS, s)
		if i < setups-1 {
			d.stop()
			continue
		}
		main = d
	}
	defer main.stop()

	arms := []int{armPlain}
	targets := map[int]string{armPlain: main.url, armSpans: main.url}
	var tracedDaemon *daemon
	var tr *tracing
	preempts0, events0 := 0.0, 0.0
	if traced {
		arms = []int{armPlain, armSpans}
		run.rec = &recorder{}
		if w.daemonTraceArm {
			d, _, err := setup(w.name+"-trace", "-trace")
			if err != nil {
				return nil, err
			}
			defer d.stop()
			tracedDaemon = d
			arms = append(arms, armDaemonTrace)
			targets[armDaemonTrace] = d.url
			events0 = healthzField(hc, d.url, "trace_total")
		}
		preempts0 = scrapeCounter(hc, main.url, "sched_preempts_total")
		tr = &tracing{rec: run.rec, epoch: time.Now()}
	}
	run.rssWarm = rssMB(main.pid())

	begin := time.Now()
	for idx := 0; ; idx++ {
		if idx > 0 {
			elapsed := time.Since(begin).Seconds()
			if elapsed+elapsed/float64(idx)/2 > seconds {
				break
			}
		}
		rd := round{}
		items := roundItems(w, seed, idx, arms)
		for len(items) > 0 {
			n := min(w.segment, len(items))
			run.host.sample(hostSamplesPerBarrier)
			run.runSegment(&rd, hc, items[:n], targets, main.url, tr)
			items = items[n:]
		}
		run.rounds = append(run.rounds, rd)
	}
	run.host.sample(hostSamplesPerBarrier)

	run.rssEnd = rssMB(main.pid())
	if traced {
		run.preempts = scrapeCounter(hc, main.url, "sched_preempts_total") - preempts0
		if tracedDaemon != nil {
			run.traceEvents = healthzField(hc, tracedDaemon.url, "trace_total") - events0
		}
		for i := 0; i < 5; i++ {
			body, rtt, err := getBody(hc, main.url+"/metrics")
			if err == nil {
				run.scrapeMs = append(run.scrapeMs, rtt.Seconds()*1e3)
				run.scrapeLen = append(run.scrapeLen, float64(len(body)))
			}
		}
	}
	return run, nil
}

// runSegment shares items among the workload's clients, each a closed
// loop with one request in flight, and returns when all are idle.
func (r *serveRun) runSegment(rd *round, hc *http.Client, items []item, targets map[int]string, readURL string, tr *tracing) {
	var mu sync.Mutex // guards next and the tallies
	next := 0
	start := time.Now()
	var metering time.Duration // spent reading the host meter between jobs
	var wg sync.WaitGroup
	for c := 0; c < r.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer guard()
			for {
				mu.Lock()
				if next == len(items) {
					mu.Unlock()
					return
				}
				it := items[next]
				next++
				mu.Unlock()

				if r.w.clients == 1 { // nothing else is in flight
					t0 := time.Now()
					r.host.sample(hostSamplesPerJob)
					metering += time.Since(t0)
				}
				var jt *tracing
				if it.arm != armPlain {
					jt = tr
				}
				res := runJob(hc, targets[it.arm], it.spec, it.body, jt)
				res.arm, res.pair = it.arm, it.pair
				mu.Lock()
				rd.results = append(rd.results, res)
				n := len(rd.results)
				mu.Unlock()
				// One pair of reads per readsEvery jobs and client.
				if r.w.readsEvery > 0 && n%r.w.readsEvery == 0 {
					for _, path := range []string{"/metrics", "/healthz"} {
						_, _, err := getBody(hc, readURL+path)
						mu.Lock()
						r.reads++
						if err != nil {
							r.badRds++
						}
						mu.Unlock()
					}
				}
			}
		}()
	}
	wg.Wait()
	rd.wall += (time.Since(start) - metering).Seconds()
}

// setupRepeats is how many times the untraced pass sets the daemon up
// to report the median set-up time.
const setupRepeats = 5

var promLine = regexp.MustCompile(`(?m)^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{[^}]*\})? ([0-9.eE+-]+)$`)

// scrapeCounter reads one unlabeled sample from the daemon's Prometheus
// text; 0 if it is absent.
func scrapeCounter(hc *http.Client, base, name string) float64 {
	body, _, err := getBody(hc, base+"/metrics")
	if err != nil {
		return 0
	}
	for _, m := range promLine.FindAllSubmatch(body, -1) {
		if string(m[1]) == name {
			v, _ := strconv.ParseFloat(string(m[2]), 64)
			return v
		}
	}
	return 0
}

// healthzField reads one numeric field of the daemon's /healthz reply.
func healthzField(hc *http.Client, base, field string) float64 {
	body, _, err := getBody(hc, base+"/healthz")
	if err != nil {
		return 0
	}
	var reply map[string]any
	if json.Unmarshal(body, &reply) != nil {
		return 0
	}
	v, _ := reply[field].(float64)
	return v
}

// tally counts operations attempted and failed: jobs, plus the reads
// serve_small makes beside them.
func (r *serveRun) tally() (attempted, failed int, firstErr string) {
	for _, res := range r.results() {
		attempted++
		if !res.ok {
			failed++
			if firstErr == "" {
				firstErr = res.err
			}
		}
	}
	if r.badRds > 0 && firstErr == "" {
		firstErr = "GET /metrics or /healthz failed"
	}
	return attempted + r.reads, failed + r.badRds, firstErr
}

// endToEnd computes the untraced pass's metrics: rates per round (jobs
// finished over the round's wall time, first submit to last result),
// latencies pooled over the rounds.
func (r *serveRun) endToEnd(m metricSet) {
	var jobs, steps, mflops, lat []float64
	for i := range r.rounds {
		rd := &r.rounds[i]
		var n, st, fl float64
		for j := range rd.results {
			if res := &rd.results[j]; res.ok {
				n++
				st += float64(res.spec.Steps)
				fl += res.spec.flops()
				lat = append(lat, res.latency().Seconds()*1e3)
			}
		}
		wall := rd.wall
		jobs = append(jobs, n/wall)
		steps = append(steps, st/wall)
		mflops = append(mflops, fl/wall/1e6)
	}
	m.setSpread("jobs_per_s", jobs)
	m.setSpread("steps_per_s", steps)
	m.setSpread("mflops", mflops)
	m.set("latency_p50_ms", percentile(lat, 50))
	m.setSpread("setup_s", r.setupS)
	r.host.normalize(m)
}

// perLayer computes the traced pass's metrics from the jobs of the
// spans arm (per-call timings exist only there) and the run's counters.
func (r *serveRun) perLayer(m metricSet) {
	var lat, submit, poll, overhead, wait, pointStep, sweepPoint []float64
	var polls, granted, resizes, sumOverhead, sumLat, sumWait, busy, syncs, steps float64
	stepMs := map[string][]float64{}
	rejected := 0
	n := 0.0
	for _, res := range r.results() {
		if res.rejected {
			rejected++
		}
		if !res.ok || res.arm != armSpans {
			continue
		}
		n++
		busy += res.status.RunSec * res.meanGranted()
		l := res.latency().Seconds()
		o := l - res.status.WaitSec - res.status.RunSec
		lat = append(lat, l*1e3)
		submit = append(submit, float64(res.submitNs)/1e6)
		for _, p := range res.pollNs {
			poll = append(poll, float64(p)/1e6)
		}
		polls += float64(res.polls)
		overhead = append(overhead, o*1e3)
		sumOverhead += o
		sumLat += l
		wait = append(wait, res.status.WaitSec*1e3)
		sumWait += res.status.WaitSec
		granted += res.meanGranted()
		resizes += float64(res.status.Resizes)
		switch res.spec.Kind {
		case "f3d":
			work := float64(res.spec.Interior * res.spec.Steps)
			pointStep = append(pointStep, res.status.RunSec/work*1e9)
			stepMs[res.spec.Class] = append(stepMs[res.spec.Class], res.status.RunSec/float64(res.spec.Steps)*1e3)
			syncs += float64(res.status.SyncEvents)
			steps += float64(res.spec.Steps)
		case "euler":
			sweepPoint = append(sweepPoint, res.status.RunSec/float64(res.spec.Points*res.spec.Steps)*1e9)
		}
	}
	if n == 0 {
		return
	}
	tail := tailPercentile(len(lat))
	m.set("e2e.latency_p90_ms", percentile(lat, 90))
	m.set("e2e.latency_tail_ms", percentile(lat, tail))
	m.set("e2e.tail_percentile", tail)
	m.set("e2e.samples", n)

	m.set("f3dd.submit_ms", median(submit))
	m.set("f3dd.poll_ms", median(poll))
	m.set("f3dd.polls_per_job", polls/n)
	m.set("f3dd.overhead_ms", median(overhead))
	m.set("f3dd.overhead_share", sumOverhead/sumLat)
	if r.w.name == "serve_small" {
		m.set("f3dd.latency_p99_ms", percentile(lat, 99))
	}
	m.set("f3dd.rejected", float64(rejected))
	m.set("f3dd.rss_warm_mb", r.rssWarm)
	m.set("f3dd.rss_end_mb", r.rssEnd)

	m.set("sched.wait_ms_p50", percentile(wait, 50))
	m.set("sched.wait_ms_p90", percentile(wait, 90))
	m.set("sched.wait_share", sumWait/sumLat)
	m.set("sched.granted_mean", granted/n)
	m.set("sched.resizes_per_job", resizes/n)
	m.set("sched.preempts", r.preempts)
	// Processor-seconds the jobs held over processor-seconds available
	// while they were in the system: each closed-loop client always has
	// one job in flight, so the summed latencies over the client count
	// is the wall time the spans arm occupied.
	m.set("sched.busy_share", busy*float64(r.w.clients)/(sumLat*float64(r.procs)))

	m.set("f3d.point_step_ns", median(pointStep))
	if r.w.name == "serve_solo" {
		m.set("parloop.sync_events_per_step", syncs/steps)
		for _, class := range []string{"small", "medium", "large"} {
			m.set("f3d.step_ms."+class, median(stepMs[class]))
		}
	}
	m.set("euler.sweep_point_ns", median(sweepPoint))

	m.set("obs.metrics_scrape_ms", median(r.scrapeMs))
	m.set("obs.metrics_bytes", median(r.scrapeLen))
	pct, spread := r.armOverhead(armSpans, armPlain)
	m.set("bench.trace_overhead_pct", pct)
	m.set("bench.trace_overhead_spread_pct", spread)
	if r.w.daemonTraceArm {
		pct, spread = r.armOverhead(armDaemonTrace, armSpans)
		m.set("obs.trace_overhead_pct", pct)
		m.set("obs.trace_overhead_spread_pct", spread)
		tracedSteps := 0.0
		for _, res := range r.results() {
			if res.arm == armDaemonTrace && res.ok {
				tracedSteps += float64(res.spec.Steps)
			}
		}
		if tracedSteps > 0 {
			m.set("obs.trace_events_per_step", r.traceEvents/tracedSteps)
		}
	}
}

// armOverhead compares two arms of the traced pass pair by pair (the
// same job, or the same block, run under both) and returns the median
// extra latency of arm over base in percent, with the spread of the
// pair values: their interquartile distance, or max-min under four
// pairs.
func (r *serveRun) armOverhead(arm, base int) (pct, spread float64) {
	type sums struct{ arm, base float64 }
	pairs := map[int]*sums{}
	for _, res := range r.results() {
		if !res.ok || (res.arm != arm && res.arm != base) {
			continue
		}
		s := pairs[res.pair]
		if s == nil {
			s = &sums{}
			pairs[res.pair] = s
		}
		if res.arm == arm {
			s.arm += res.latency().Seconds()
		} else {
			s.base += res.latency().Seconds()
		}
	}
	var pcts []float64
	for _, s := range pairs {
		if s.arm > 0 && s.base > 0 {
			pcts = append(pcts, (s.arm/s.base-1)*100)
		}
	}
	return median(pcts), spreadOf(pcts)
}

// spreadOf is the interquartile distance of xs, or max-min when there
// are fewer than four values.
func spreadOf(xs []float64) float64 {
	if len(xs) < 4 {
		lo, hi := minMax(xs)
		return hi - lo
	}
	q1, q3 := quartiles(xs)
	return q3 - q1
}
