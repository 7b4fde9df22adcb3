package cluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs/serve"
)

// TestShardServerBodyCap: a request body over the cap is refused with
// 413 before it is buffered; one under it reaches the host (and fails
// there, with the host's 400, for naming no shard).
func TestShardServerBodyCap(t *testing.T) {
	sv := NewShardServer(newTestHost(t, 1))
	if sv.maxBody != maxShardBody {
		t.Fatalf("default body cap %d, want %d", sv.maxBody, maxShardBody)
	}
	sv.maxBody = 1 << 10
	ts := httptest.NewServer(sv)
	defer ts.Close()

	post := func(path, body string) int {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	big := `{"job":"` + strings.Repeat("x", 2<<10) + `"}`
	for _, path := range []string{"/shards/create", "/shards/step", "/shards/release"} {
		if got := post(path, big); got != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body: status %d, want 413", path, len(big), got)
		}
	}
	if got := post("/shards/release", `{"id":"nope"}`); got != http.StatusBadRequest {
		t.Errorf("small body: status %d, want the host's 400", got)
	}

	// Framed endpoints: an oversize frame is 413 whether the body or
	// only a declared length is over the cap; every malformed frame,
	// and the JSON body these endpoints used to take, is 400.
	step := `{"msg":{"id":"nope"}}`
	for _, tc := range []struct {
		name string
		body []byte
		want int
	}{
		{"oversize frame", rawFrame(step + strings.Repeat(" ", 2<<10)), http.StatusRequestEntityTooLarge},
		{"declared length over the cap", rawFrame(`{"msg":{},"planes":[4096]}`), http.StatusRequestEntityTooLarge},
		{"bad magic", append([]byte("f3d!"), rawFrame(step)[4:]...), http.StatusBadRequest},
		{"short header", rawFrame(step)[:framePrefixBytes+3], http.StatusBadRequest},
		{"length past body", rawFrame(`{"msg":{},"planes":[64]}`, make([]byte, 16)), http.StatusBadRequest},
		{"old JSON body", []byte(`{"job":"j","id":"nope","step":0}`), http.StatusBadRequest},
		{"valid frame, unknown shard", rawFrame(step), http.StatusBadRequest},
	} {
		for _, path := range []string{"/shards/create", "/shards/step"} {
			if got := post(path, string(tc.body)); got != tc.want {
				t.Errorf("%s, %s: status %d, want %d", path, tc.name, got, tc.want)
			}
		}
	}
	// The refusal names the cause, so a coordinator built from another
	// tree learns why it is being turned away.
	resp, err := ts.Client().Post(ts.URL+"/shards/step", "application/json", strings.NewReader(`{"id":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(msg), "not a shard frame") {
		t.Errorf("JSON body refused with %q, want the frame named", msg)
	}
	// A body of undeclared length (chunked) cannot be checked against
	// its own length fields and is refused.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/shards/step", io.MultiReader(bytes.NewReader(rawFrame(step))))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "undeclared length") {
		t.Errorf("chunked frame: status %d %q, want 400 naming the length", resp.StatusCode, msg)
	}
}

// TestHTTPClientResponseCap: the coordinator side validates a response
// frame like the worker validates a request — a worker that declares a
// blob beyond maxShardBody, or a body of undeclared length, is refused
// before anything is allocated for it.
func TestHTTPClientResponseCap(t *testing.T) {
	var body atomic.Pointer[[]byte]
	var chunked atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b := *body.Load()
		if chunked.Load() {
			w.(http.Flusher).Flush() // commits the header without a Content-Length
		}
		w.Write(b)
	}))
	defer ts.Close()
	c := &HTTPClient{BaseURL: ts.URL, Client: ts.Client()}

	lying := rawFrame(`{"msg":{"zones":[]},"snaps":[{"zone":0,"len":1099511627776}]}`)
	body.Store(&lying)
	_, err := c.StepShard(StepRequest{ID: "x"})
	if !errors.Is(err, errFrameTooLarge) {
		t.Errorf("response declaring a 1 TiB snapshot: err %v, want errFrameTooLarge", err)
	}
	past := rawFrame(`{"msg":{"id":"x"},"planes":[4096]}`, make([]byte, 8))
	body.Store(&past)
	// A response cut off mid-frame is a transport failure: the engine
	// fails over instead of failing the solve.
	if _, err := c.CreateShard(CreateShardRequest{}); err == nil || !strings.Contains(err.Error(), "runs past") ||
		!errors.Is(err, ErrWorkerDown) {
		t.Errorf("response with a plane past its body: err %v, want ErrWorkerDown", err)
	}
	fine := rawFrame(`{"msg":{"id":"x"},"planes":[8]}`, make([]byte, 8))
	body.Store(&fine)
	if resp, err := c.CreateShard(CreateShardRequest{}); err != nil || resp.ID != "x" || len(resp.Planes) != 1 {
		t.Errorf("well-formed response: %+v, %v", resp, err)
	}
	chunked.Store(true)
	if _, err := c.CreateShard(CreateShardRequest{}); err == nil || !strings.Contains(err.Error(), "undeclared length") {
		t.Errorf("chunked response: err %v, want the undeclared length refused", err)
	}
}

// killAfter serves a worker until its n-th /shards/step request, then
// aborts that and every later connection — a daemon killed mid-solve.
type killAfter struct {
	h     http.Handler
	n     int32
	steps atomic.Int32
}

func (k *killAfter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/shards/step" {
		k.steps.Add(1)
	}
	if k.steps.Load() > k.n {
		panic(http.ErrAbortHandler)
	}
	k.h.ServeHTTP(w, r)
}

// restoreTap counts the snapshots that arrive in /shards/create frames,
// then passes the request on untouched.
type restoreTap struct {
	h        http.Handler
	restored atomic.Int32
}

func (rt *restoreTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/shards/create" {
		b, _ := io.ReadAll(r.Body)
		var req CreateShardRequest
		if readFrame(bytes.NewReader(b), maxShardBody, int64(len(b)), &req, nil) == nil {
			rt.restored.Add(int32(len(req.Restore)))
		}
		r.Body = io.NopCloser(bytes.NewReader(b))
	}
	rt.h.ServeHTTP(w, r)
}

// TestHTTPFailoverRestoresOverTheWire: with real HTTP between the
// coordinator and three workers, one worker dies mid-solve; the engine
// re-shards onto the survivors by shipping the last checkpoint inside
// framed /shards/create requests, and the history still equals the
// single-node one bitwise.
func TestHTTPFailoverRestoresOverTheWire(t *testing.T) {
	const steps = 6
	want := referenceHistory(t, steps)
	c := New(Config{})
	doomed := &killAfter{n: 3}
	var taps []*restoreTap
	for i, id := range []string{"wire-a", "wire-b", "wire-c"} {
		tap := &restoreTap{h: NewShardServer(newTestHost(t, 1))}
		taps = append(taps, tap)
		var h http.Handler = tap
		if i == 2 {
			doomed.h = tap
			h = doomed
		}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		if err := c.Register(id, &HTTPClient{BaseURL: srv.URL, Client: srv.Client()}); err != nil {
			t.Fatalf("register: %v", err)
		}
	}
	cfg, amp := testCase()
	zones := cfg.Case.Zones
	res, err := c.Solve(SolveSpec{
		Job:    "wire",
		Config: cfg, PulseAmp: amp, Steps: steps, CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if doomed.steps.Load() <= doomed.n {
		t.Fatalf("doomed worker served only %d steps; it was never killed", doomed.steps.Load())
	}
	if res.Failovers != 1 || res.Workers != 2 {
		t.Errorf("failovers %d on %d workers, want 1 failover onto the 2 survivors", res.Failovers, res.Workers)
	}
	restored := int32(0)
	for _, tap := range taps {
		restored += tap.restored.Load()
	}
	if int(restored) != len(zones) {
		t.Errorf("%d snapshots crossed the wire in create frames, want one per zone (%d)", restored, len(zones))
	}
	assertHistoryBitwise(t, res.History, want)
}

// TestHostConcurrentSteps: racing /shards/step calls for one shard and
// one step index queue on the shard's job, so exactly one
// advances the solver and the rest fail the lockstep check; a release
// racing the steps waits for the one that is running. Run under -race.
func TestHostConcurrentSteps(t *testing.T) {
	want := referenceHistory(t, 2)
	cfg, amp := testCase()
	zones := cfg.Case.Zones
	h := newTestHost(t, 1)
	created, err := h.Create(context.Background(), CreateShardRequest{Job: "race",
		Lo: 0, Hi: len(zones), Config: cfg, PulseAmp: amp})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	// raceSteps fires n concurrent calls for one step index and returns
	// how many advanced the shard; each winner must have produced the
	// reference step, each loser one of the allowed refusals.
	raceSteps := func(step int, also func(), refusals ...string) int {
		const n = 8
		resps := make([]StepResponse, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resps[i], errs[i] = h.Step(StepRequest{ID: created.ID, Step: step, Checkpoint: true})
			}(i)
		}
		if also != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				also()
			}()
		}
		wg.Wait()
		won := 0
		for i, err := range errs {
			if err == nil {
				won++
				st, ferr := foldStep(SolveSpec{Config: cfg}, resps[i:i+1])
				if ferr != nil {
					t.Fatalf("fold: %v", ferr)
				}
				st.Flops = want[step].Flops
				assertHistoryBitwise(t, []StepStat{st}, want[step:step+1])
				continue
			}
			known := false
			for _, r := range refusals {
				known = known || strings.Contains(err.Error(), r)
			}
			if !known {
				t.Errorf("step %d, caller %d: unexpected error %v", step, i, err)
			}
		}
		return won
	}
	if won := raceSteps(0, nil, "request for step 0"); won != 1 {
		t.Fatalf("step 0: %d concurrent calls advanced the shard, want exactly 1", won)
	}
	// Step 1 races a release too: at most one step runs, before the
	// release closes the solver; the rest find the step taken or the
	// shard gone.
	release := func() {
		if err := h.Release(ReleaseRequest{ID: created.ID}); err != nil {
			t.Errorf("release: %v", err)
		}
	}
	if won := raceSteps(1, release, "request for step 1", "no shard"); won > 1 {
		t.Fatalf("step 1: %d concurrent calls advanced the shard, want at most 1", won)
	}
	if n := h.ShardCount(); n != 0 {
		t.Errorf("%d shards left after release", n)
	}
}

// TestHTTPServerHeaderTimeout: the daemons' server drops a connection
// that never finishes its request headers, and sets no read or write
// deadline that would cut a request that legitimately waits.
func TestHTTPServerHeaderTimeout(t *testing.T) {
	srv := NewHTTPServer("", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("ReadTimeout %v / WriteTimeout %v set: would cut long shard steps and held results", srv.ReadTimeout, srv.WriteTimeout)
	}

	srv.ReadHeaderTimeout = 50 * time.Millisecond // keep the test fast
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-done
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n")); err != nil { // headers never end
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	// The server answers 408 (or just closes); either way the read
	// returns long before the 10 s deadline instead of hanging.
	start := time.Now()
	_, _ = bufio.NewReader(conn).ReadString('\n')
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("stalled-header connection still open after %v", waited)
	}
}

// TestFetchTraceBodyCap: a worker whose /trace body runs past
// serve.MaxTraceBody — here one that never ends — costs the coordinator
// a failed fetch, not unbounded memory or a shortened batch: the
// collector records the error and keeps the cursor it had.
func TestFetchTraceBodyCap(t *testing.T) {
	line := []byte(`{"seq":7,"at":"2001-01-01T00:00:00Z","kind":"chunk","worker":0}` + "\n")
	pad := append(bytes.Repeat([]byte(" "), 64<<10-1), '\n') // blank lines: read, then skipped
	var endless atomic.Bool
	var streamed atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(line)
		for endless.Load() {
			streamed.Add(int64(len(pad))) // before the write: an upper bound on what arrived
			if _, err := w.Write(pad); err != nil {
				return // the coordinator hung up
			}
		}
	}))
	defer ts.Close()
	col := NewCollector(CollectorConfig{})
	col.AddWorker("w", &HTTPClient{BaseURL: ts.URL, Client: ts.Client()})

	if n := col.Pull(); n != 1 || col.Stats()[0].Cursor != 8 {
		t.Fatalf("well-formed pull: %d events, stats %+v", n, col.Stats()[0])
	}
	endless.Store(true)
	if n := col.Pull(); n != 0 {
		t.Errorf("oversize pull added %d events", n)
	}
	st := col.Stats()[0]
	if st.Cursor != 8 || st.Errors != 1 || st.Events != 1 || !strings.Contains(st.LastErr, "exceeds") {
		t.Errorf("after an oversize body: %+v, want cursor 8, 1 error naming the cap, 1 event", st)
	}
	if got := streamed.Load(); got < serve.MaxTraceBody {
		t.Errorf("worker streamed %d bytes before the refusal, want past the %d cap", got, serve.MaxTraceBody)
	}
}
