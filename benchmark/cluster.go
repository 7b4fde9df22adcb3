package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// The arms of a cluster_solve run. The untraced pass runs solveDirect
// only; the traced pass runs all four per block, so that arms are
// compared on the same host conditions.
const (
	solveDirect       = iota // f3dc -> W workers
	solveProxied             // f3dc -> byte-counting proxies -> W workers (spans)
	solveNoCheckpoint        // solveProxied with -checkpoint-every -1
	solveSingle              // f3dc -> 1 worker: the plain baseline for scaling
)

// stepStat mirrors one entry of f3dc's history.
type stepStat struct {
	Residual float64 `json:"residual"`
	MaxDelta float64 `json:"max_delta"`
	Flops    float64 `json:"flops"`
}

// solveOutput is the part of f3dc's stdout JSON the benchmark reads.
type solveOutput struct {
	History   []stepStat `json:"history"`
	Workers   int        `json:"workers"`
	Failovers int        `json:"failovers"`
}

// solve is one f3dc invocation, start of process to exit.
type solve struct {
	arm   int
	block int
	start time.Time
	end   time.Time
	out   solveOutput
	root  uint64 // span id of the solve's root, proxied arms only
	err   string // empty when the solve ran and passed every output check
}

func (s *solve) seconds() float64 { return s.end.Sub(s.start).Seconds() }

func (s *solve) flops() float64 {
	t := 0.0
	for _, h := range s.out.History {
		t += h.Flops
	}
	return t
}

// solveCtx is what a proxy needs to file a span under the running solve.
type solveCtx struct {
	trace, root uint64
}

// proxy is the traced pass's measuring point in front of one worker: a
// reverse proxy that forwards every request unchanged and records one
// span per request — path as name, request and response body sizes —
// under the solve currently running. Nothing inside f3dc or f3dd is
// instrumented.
type proxy struct {
	worker string // label in spans: w0, w1, ...
	target string
	url    string
	srv    *http.Server
	hc     *http.Client
	rec    *recorder
	epoch  time.Time
	cur    *atomic.Pointer[solveCtx]
}

func startProxy(worker, target string, rec *recorder, epoch time.Time, cur *atomic.Pointer[solveCtx]) (*proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &proxy{worker: worker, target: target, url: "http://" + ln.Addr().String(),
		hc: newHTTPClient(4), rec: rec, epoch: epoch, cur: cur}
	p.srv = &http.Server{Handler: p}
	go func() {
		defer guard()
		_ = p.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return p, nil
}

func (p *proxy) close() {
	_ = p.srv.Close()
	p.hc.CloseIdleConnections()
}

func (p *proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	reqBody, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	out, err := http.NewRequestWithContext(r.Context(), r.Method, p.target+r.URL.RequestURI(), bytes.NewReader(reqBody))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	out.Header = r.Header.Clone()
	resp, err := p.hc.Do(out)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	respBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	for k, v := range resp.Header {
		w.Header()[k] = v
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(respBody) // the coordinator hanging up is its own failure, seen in f3dc's exit
	t1 := time.Now()
	if sc := p.cur.Load(); sc != nil {
		p.rec.add(span{
			Trace: sc.trace, Span: p.rec.id(), Parent: sc.root,
			Name: "rpc." + path.Base(r.URL.Path), Worker: p.worker,
			Start: t0.Sub(p.epoch).Nanoseconds(), End: t1.Sub(p.epoch).Nanoseconds(),
			BytesUp: int64(len(reqBody)), BytesDown: int64(len(respBody)),
		})
	}
}

// clusterRun is everything one pass over cluster_solve measured.
type clusterRun struct {
	e       *env
	seed    int64
	workers []*daemon
	proxies []*proxy
	rec     *recorder
	epoch   time.Time
	cur     atomic.Pointer[solveCtx]
	logf    *os.File
	nSolves int

	setupS    []float64
	reference []stepStat // the 1-worker history every W-worker one must equal
	solves    []solve
	host      *hostMeter
}

// hostSamplesPerSolve is how many host-meter samples precede each solve.
const hostSamplesPerSolve = 3

// clusterSetupRepeats is how many times the untraced pass brings the
// worker fleet up to report the median set-up time.
const clusterSetupRepeats = 3

func urls(ds []*daemon) string {
	u := make([]string, len(ds))
	for i, d := range ds {
		u[i] = d.url
	}
	return strings.Join(u, ",")
}

// runF3DC runs one solve as a child process and checks its output.
func (c *clusterRun) runF3DC(arm, block, steps int, workers string, extra ...string) solve {
	s := solve{arm: arm, block: block}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	args := append([]string{"-workers", workers, "-q", "-steps", strconv.Itoa(steps),
		"-job", clusterJobKey(c.seed, c.nSolves)}, clusterCase...)
	c.nSolves++
	cmd := exec.CommandContext(ctx, c.e.bin("f3dc"), append(args, extra...)...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, c.logf

	if arm == solveProxied || arm == solveNoCheckpoint {
		s.root = c.rec.id()
		c.cur.Store(&solveCtx{trace: c.rec.id(), root: s.root})
		defer c.cur.Store(nil)
	}
	s.start = time.Now()
	err := cmd.Start()
	if err == nil {
		trackChild(cmd, func() { _ = cmd.Process.Kill() })
		err = cmd.Wait()
		untrackChild(cmd)
	}
	s.end = time.Now()
	if sc := c.cur.Load(); sc != nil {
		c.rec.add(span{Trace: sc.trace, Span: s.root, Name: "solve",
			Start: s.start.Sub(c.epoch).Nanoseconds(), End: s.end.Sub(c.epoch).Nanoseconds()})
	}
	switch {
	case err != nil:
		s.err = fmt.Sprintf("f3dc: %v", err)
	case json.Unmarshal(stdout.Bytes(), &s.out) != nil:
		s.err = "f3dc: stdout is not the result JSON"
	default:
		s.err = checkHistory(s.out, steps)
	}
	return s
}

// checkHistory applies the output checks every solve must pass on its
// own: a complete, finite, positive, converging history and no
// failover.
func checkHistory(out solveOutput, steps int) string {
	if len(out.History) != steps {
		return fmt.Sprintf("history has %d steps, want %d", len(out.History), steps)
	}
	for i, h := range out.History {
		if math.IsNaN(h.Residual) || math.IsInf(h.Residual, 0) || h.Residual <= 0 {
			return fmt.Sprintf("residual[%d] = %g is not finite and positive", i, h.Residual)
		}
	}
	if steps > 1 && !(out.History[steps-1].Residual < out.History[0].Residual) {
		return fmt.Sprintf("last residual %g is not below the first %g", out.History[steps-1].Residual, out.History[0].Residual)
	}
	if out.Failovers != 0 {
		return fmt.Sprintf("%d failovers", out.Failovers)
	}
	return ""
}

// sameHistory reports whether two histories are equal bit for bit.
func sameHistory(a, b []stepStat) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Residual) != math.Float64bits(b[i].Residual) ||
			math.Float64bits(a[i].MaxDelta) != math.Float64bits(b[i].MaxDelta) {
			return false
		}
	}
	return true
}

func (c *clusterRun) stopWorkers() {
	for _, d := range c.workers {
		d.stop()
	}
	c.workers = nil
}

// setup starts W single-processor workers and runs the fixed warm-up
// solve over them; the elapsed time is one set-up sample.
func (c *clusterRun) setup(hc *http.Client) error {
	t0 := time.Now()
	for i := 0; i < clusterWorkers(); i++ {
		d, err := c.e.startDaemon(fmt.Sprintf("cluster_solve-w%d", i), hc, "-procs", "1")
		if err != nil {
			c.stopWorkers()
			return err
		}
		c.workers = append(c.workers, d)
	}
	if s := c.runF3DC(solveDirect, -1, clusterWarmupSteps, urls(c.workers)); s.err != "" {
		c.stopWorkers()
		return fmt.Errorf("cluster_solve: warm-up solve: %s", s.err)
	}
	c.setupS = append(c.setupS, time.Since(t0).Seconds())
	return nil
}

// newClusterRun opens the pass's f3dc log; close releases it and stops
// whatever workers are still up.
func newClusterRun(e *env, seed int64) (*clusterRun, error) {
	logf, err := os.OpenFile(filepath.Join(e.outDir, "cluster_solve-f3dc.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &clusterRun{e: e, seed: seed, rec: &recorder{}, logf: logf, host: newHostMeter("cluster_solve")}, nil
}

func (c *clusterRun) close() {
	c.stopWorkers()
	c.logf.Close()
}

// runCluster executes one pass over cluster_solve for about `seconds`.
func runCluster(e *env, seed int64, seconds float64, traced bool) (*clusterRun, error) {
	c, err := newClusterRun(e, seed)
	if err != nil {
		return nil, err
	}
	defer c.close()
	hc := newHTTPClient(2)
	defer hc.CloseIdleConnections()

	setups := clusterSetupRepeats
	if traced {
		setups = 1
	}
	for i := 0; i < setups; i++ {
		if i > 0 {
			c.stopWorkers()
		}
		c.host.sample(hostSamplesPerSetup)
		if err := c.setup(hc); err != nil {
			return nil, err
		}
	}

	c.epoch = time.Now()
	if traced {
		for i, d := range c.workers {
			p, err := startProxy(fmt.Sprintf("w%d", i), d.url, c.rec, c.epoch, &c.cur)
			if err != nil {
				return nil, err
			}
			defer p.close()
			c.proxies = append(c.proxies, p)
		}
	}
	direct := urls(c.workers)
	single := c.workers[0].url
	var proxied []string
	for _, p := range c.proxies {
		proxied = append(proxied, p.url)
	}

	// The reference: the same case on one worker. Every solve of the
	// run repeats this case, so one reference serves them all.
	ref := c.runF3DC(solveSingle, -1, clusterSteps, single)
	if ref.err != "" {
		return nil, fmt.Errorf("cluster_solve: 1-worker reference solve: %s", ref.err)
	}
	c.reference = ref.out.History

	arms := []int{solveDirect, solveDirect}
	if traced {
		arms = []int{solveDirect, solveProxied, solveNoCheckpoint, solveSingle}
	}
	begin := time.Now()
	for block := 0; ; block++ {
		if block > 0 {
			elapsed := time.Since(begin).Seconds()
			if elapsed+elapsed/float64(block)/2 > seconds {
				break
			}
		}
		for a := range arms {
			c.host.sample(hostSamplesPerSolve) // between solves nothing is in flight
			var s solve
			switch arm := arms[(a+block)%len(arms)]; arm {
			case solveDirect:
				s = c.runF3DC(arm, block, clusterSteps, direct)
			case solveProxied:
				s = c.runF3DC(arm, block, clusterSteps, strings.Join(proxied, ","))
			case solveNoCheckpoint:
				s = c.runF3DC(arm, block, clusterSteps, strings.Join(proxied, ","), "-checkpoint-every", "-1")
			case solveSingle:
				s = c.runF3DC(arm, block, clusterSteps, single)
			}
			if s.err == "" && !sameHistory(s.out.History, c.reference) {
				s.err = "history differs from the 1-worker reference"
			}
			c.solves = append(c.solves, s)
		}
	}
	c.host.sample(hostSamplesPerSolve)
	return c, nil
}

func (c *clusterRun) tally() (attempted, failed int, firstErr string) {
	for i := range c.solves {
		attempted++
		if c.solves[i].err != "" {
			failed++
			if firstErr == "" {
				firstErr = c.solves[i].err
			}
		}
	}
	return attempted, failed, firstErr
}

// byArm returns the passing solves of one arm, in run order.
func (c *clusterRun) byArm(arm int) []*solve {
	var out []*solve
	for i := range c.solves {
		if c.solves[i].arm == arm && c.solves[i].err == "" {
			out = append(out, &c.solves[i])
		}
	}
	return out
}

// endToEnd computes the untraced pass's metrics. A block is two
// W-worker solves back to back; rates are per block (the two solve
// times, without the meter reading between them), latencies per solve.
func (c *clusterRun) endToEnd(m metricSet) {
	var jobs, steps, mflops, lat []float64
	blocks := map[int][]*solve{}
	for _, s := range c.byArm(solveDirect) {
		lat = append(lat, s.seconds()*1e3)
		blocks[s.block] = append(blocks[s.block], s)
	}
	for _, b := range blocks {
		if len(b) != 2 {
			continue
		}
		wall := b[0].seconds() + b[1].seconds()
		jobs = append(jobs, 2/wall)
		steps = append(steps, 2*clusterSteps/wall)
		mflops = append(mflops, (b[0].flops()+b[1].flops())/wall/1e6)
	}
	m.setSpread("jobs_per_s", jobs)
	m.setSpread("steps_per_s", steps)
	m.setSpread("mflops", mflops)
	m.set("latency_p50_ms", percentile(lat, 50))
	m.setSpread("setup_s", c.setupS)
	c.host.normalize(m)
}

// perLayer computes the traced pass's metrics: the proxies' spans give
// the RPC-level numbers, the paired arms the shares.
func (c *clusterRun) perLayer(m metricSet) {
	directs, proxieds := c.byArm(solveDirect), c.byArm(solveProxied)
	nocks, singles := c.byArm(solveNoCheckpoint), c.byArm(solveSingle)
	secs := func(ss []*solve) []float64 {
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = s.seconds()
		}
		return out
	}
	if len(directs) == 0 || len(singles) == 0 || len(proxieds) == 0 {
		return
	}
	used := float64(directs[0].out.Workers)
	var lat []float64
	for _, s := range secs(directs) {
		lat = append(lat, s*1e3)
	}
	tail := tailPercentile(len(lat))
	m.set("e2e.latency_p90_ms", percentile(lat, 90))
	m.set("e2e.latency_tail_ms", percentile(lat, tail))
	m.set("e2e.tail_percentile", tail)
	m.set("e2e.samples", float64(len(lat)))
	// steps/s on W workers over (workers used x steps/s on one): the
	// step counts cancel, leaving the ratio of the median solve times.
	m.set("e2e.scaling_efficiency", median(secs(singles))/(used*median(secs(directs))))
	m.set("cluster.workers_used", used)

	bitwise := 1.0
	for i := range c.solves {
		if c.solves[i].err != "" {
			bitwise = 0
		}
	}
	m.set("cluster.history_bitwise_ok", bitwise)

	kids := map[uint64][]span{}
	roots := map[uint64]span{}
	for _, s := range c.rec.all() {
		if s.Parent == 0 {
			roots[s.Span] = s
		} else {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var stepWall, rpcStep, coordSelf, straggler, create, release, msgs, up, down []float64
	for _, s := range proxieds {
		root, rpcs := roots[s.root], kids[s.root]
		perWorker := map[string][]span{}
		var first, last int64
		var bytesUp, bytesDown float64
		for _, r := range rpcs {
			bytesUp += float64(r.BytesUp)
			bytesDown += float64(r.BytesDown)
			ms := float64(r.dur()) / 1e6
			switch r.Name {
			case "rpc.step":
				perWorker[r.Worker] = append(perWorker[r.Worker], r)
				rpcStep = append(rpcStep, ms)
				if first == 0 || r.Start < first {
					first = r.Start
				}
				last = max(last, r.End)
			case "rpc.create":
				create = append(create, ms)
			case "rpc.release":
				release = append(release, ms)
			}
		}
		stepWall = append(stepWall, float64(last-first)/1e6/clusterSteps)
		coordSelf = append(coordSelf, float64(selfTime(root, rpcs))/1e6/clusterSteps)
		msgs = append(msgs, float64(len(rpcs))/clusterSteps)
		up = append(up, bytesUp/clusterSteps)
		down = append(down, bytesDown/clusterSteps)
		// Each worker answers one step RPC per lockstep step, in order,
		// so the k-th span of every worker belongs to step k.
		gap := 0.0
		for k := 0; k < clusterSteps; k++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, spans := range perWorker {
				if k < len(spans) {
					d := float64(spans[k].dur()) / 1e6
					lo, hi = math.Min(lo, d), math.Max(hi, d)
				}
			}
			if hi >= lo {
				gap += hi - lo
			}
		}
		straggler = append(straggler, gap/clusterSteps)
	}
	m.set("cluster.step_wall_ms", median(stepWall))
	m.set("cluster.rpc_step_ms", median(rpcStep))
	m.set("cluster.coord_self_ms_step", median(coordSelf))
	m.set("cluster.straggler_ms_step", median(straggler))
	m.set("cluster.create_ms", median(create))
	m.set("cluster.release_ms", median(release))
	m.set("cluster.msgs_step", median(msgs))
	m.set("cluster.bytes_up_step", median(up))
	m.set("cluster.bytes_down_step", median(down))

	// Paired by block: the arms of one block ran within seconds of each
	// other.
	pairPct := func(num, den []*solve, f func(n, d float64) float64) []float64 {
		byBlock := map[int]*solve{}
		for _, s := range den {
			byBlock[s.block] = s
		}
		var out []float64
		for _, s := range num {
			if d := byBlock[s.block]; d != nil {
				out = append(out, f(s.seconds(), d.seconds()))
			}
		}
		return out
	}
	m.set("cluster.checkpoint_share", median(pairPct(nocks, proxieds, func(n, d float64) float64 { return 1 - n/d })))
	overhead := pairPct(proxieds, directs, func(n, d float64) float64 { return (n/d - 1) * 100 })
	m.set("bench.trace_overhead_pct", median(overhead))
	m.set("bench.trace_overhead_spread_pct", spreadOf(overhead))
}
