// Package parloop is a loop-level parallelism runtime for Go, modeled on
// the OpenMP/C$doacross execution model that ARL-TR-2556 uses to
// parallelize vectorizable programs on shared-memory SMPs.
//
// A Team is a set of persistent worker goroutines (the OpenMP "thread
// team"). Parallel loops are fork-join regions executed by the team:
// the caller becomes worker 0, the iteration space is dealt once, up
// front, in contiguous Static blocks (StaticRange), and the region ends
// with one synchronization event — the cost the paper's Table 1 budgets
// against.
//
// The API mirrors the transformations of the paper's §4:
//
//   - For / ForChunked parallelize a single loop (Example 1: parallelize
//     the outer loop of a vectorizable nest);
//   - Region opens one parallel region in which each worker runs several
//     loop phases separated by Barrier calls, merging loops under a
//     single fork-join (Example 2) or hoisting parallelism into a parent
//     subroutine (Example 3);
//   - SumFloat64 performs a deterministic reduction (partials combined
//     in worker order, so results are bit-reproducible run to run for a
//     fixed team size).
//
// Every region increments the team's synchronization-event counter,
// which the benchmark harness uses to verify the paper's claim that
// loop merging and parent-level parallelization cut synchronization
// events by one to three orders of magnitude.
package parloop

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// PanicError is the value a fork-join region re-raises on the caller
// when a worker panicked inside the region. It preserves the original
// panic value plus the worker's identity and stack, and implements
// error so a recover site (for example a job scheduler) can convert
// the region failure into an ordinary error without losing the cause.
//
// The team itself survives: the panic breaks the region's barrier so
// no teammate deadlocks waiting for the dead worker, the join still
// completes, and the barrier is replaced before the re-raise, leaving
// the team immediately reusable for further regions.
type PanicError struct {
	// Value is the original panic value.
	Value any
	// Worker is the index of the worker that panicked.
	Worker int
	// Stack is the panicking worker's stack trace.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parloop: worker %d panicked: %v", e.Worker, e.Value)
}

// barrierBroken is the sentinel panic used to unwind workers parked at
// a region barrier when a teammate panics: the broken barrier releases
// them, they unwind with this sentinel, and the region's recover
// discards it in favor of the teammate's original panic.
type barrierBroken struct{}

// blockTime bounds how long a waiting worker polls before it parks: an
// idle helper, the forker at the join, a barrier waiter. A helper still
// polling when a region forks starts within microseconds; a parked one
// is woken 50–100 µs late (DESIGN §13). The bound covers the served
// step's largest serial gap (bc or residual, ≤ 0.35 ms) with margin, so
// a served team stays running, and an idle team soon goes quiet.
const blockTime = 2 * time.Millisecond

// poll calls ready until it reports true, blockTime passes or keep (if
// non-nil) reports false, and reports whether ready did. The clock and
// keep are read once every 64 calls. The loop does nothing else: it
// neither sleeps nor yields (DESIGN §13).
func poll(ready, keep func() bool) bool {
	deadline := time.Now().Add(blockTime)
	for i := 1; !ready(); i++ {
		if i%64 == 0 && (time.Now().After(deadline) || keep != nil && !keep()) {
			return false
		}
	}
	return true
}

// recv receives from ch, polling first (poll) when spin is set.
func recv[T any](ch chan T, spin bool, keep func() bool) (v T, ok bool) {
	if spin && poll(func() bool {
		select {
		case v, ok = <-ch:
			return true
		default:
			return false
		}
	}, keep) {
		return v, ok
	}
	v, ok = <-ch
	return v, ok
}

// Team is a persistent group of workers that executes parallel regions.
// The zero value is not usable; call NewTeam. A Team is safe for use by
// one region at a time (like an OpenMP thread team); concurrent regions
// on the same team must be externally serialized.
type Team struct {
	workers int
	cmds    []chan func(worker int) // one one-slot channel per helper (workers 1..workers-1)
	bar     *barrier

	// pending counts the workers still inside the open region; the
	// last one out puts the join token in done.
	pending atomic.Int32
	done    chan struct{}
	// spins reports that the team fits in GOMAXPROCS: an oversubscribed
	// team's waiters park at once, leaving processors to teammates.
	spins atomic.Bool

	// tracer receives region/barrier/chunk/phase span events labeled
	// with label. A nil or disabled tracer costs one atomic load per site
	// and allocates nothing (the obs package's always-attached
	// contract).
	tracer *obs.Tracer
	label  string

	closed  atomic.Bool
	regions atomic.Uint64 // synchronization events (fork-join regions)

	// inRegion is an advisory guard marking a fork-join region open on
	// the team. Resize and a second concurrent region check it to turn
	// the silent corruption of a contract violation (Resize closing the
	// command channels of an in-flight region, two regions sharing one
	// barrier) into an immediate panic.
	inRegion atomic.Bool

	// epoch is the barrier-epoch counter the dynamic loop-dependence
	// checker (internal/check) keys its happens-before relation on: it
	// is bumped when a region forks, when a region joins, and when a
	// region barrier releases. Two memory accesses can race only if
	// they observe the same epoch from different workers — accesses in
	// different epochs are separated by a fork, join or barrier.
	epoch atomic.Uint64

	// panicMu collects the first panic raised inside a region so it can
	// be re-raised on the caller's goroutine after the join.
	panicMu  sync.Mutex
	panicked any
	panicSet bool
}

// NewTeam creates a team of n workers. The calling goroutine
// participates as worker 0 of every region; n-1 helper goroutines are
// started and wait for the first region. A team with n == 1 executes
// all regions inline and opens no synchronization events. n < 1 is
// clamped to 1 (a degenerate grant still deserves a working serial team
// — the guard a processor-allocating scheduler relies on).
func NewTeam(n int) *Team {
	if n < 1 {
		n = 1
	}
	t := &Team{done: make(chan struct{}, 1)}
	t.setWorkers(n)
	return t
}

// setWorkers sizes the team to n workers, stopping the surplus helpers
// or starting the missing ones, and builds the barrier for n parties.
func (t *Team) setWorkers(n int) {
	for len(t.cmds) > n-1 {
		close(t.cmds[len(t.cmds)-1])
		t.cmds = t.cmds[:len(t.cmds)-1]
	}
	for len(t.cmds) < n-1 {
		ch := make(chan func(int), 1)
		t.cmds = append(t.cmds, ch)
		go t.helper(len(t.cmds), ch)
	}
	t.workers = n
	t.spins.Store(n <= runtime.GOMAXPROCS(0))
	t.bar = t.newBarrier()
}

// helper runs worker's share of every region forked on the team until
// its channel is closed, polling for the next region for blockTime
// before it parks.
func (t *Team) helper(worker int, ch chan func(int)) {
	for {
		body, ok := recv(ch, t.spins.Load(), nil)
		if !ok {
			return
		}
		t.runWorker(body, worker)
	}
}

// Resize changes the team to n workers (n < 1 is clamped to 1). A grow
// starts only the new helpers and a shrink stops only the surplus; the
// survivors keep running. The synchronization-event counter is
// preserved. Resize must only be called between regions, by the same
// logical owner that opens regions (for a scheduled job: at a step
// boundary); it must never run concurrently with a region on the team.
// Resizing to the current size is a no-op. This is the grow/shrink
// primitive a space-sharing scheduler uses to apply a revised processor
// grant to a running job.
//
// Resize detects the most dangerous misuse — running while a region is
// in flight — and panics instead of corrupting the region: a resize
// racing an open region would close the command channels workers are
// being dispatched on and change the worker count that the barrier and
// each worker's StaticRange read mid-loop, silently skipping or
// double-running iterations. The check is advisory (a narrow race
// window remains), but it converts every deterministic interleaving of
// the misuse into an immediate, attributable failure.
func (t *Team) Resize(n int) {
	if t.closed.Load() {
		panic("parloop: Resize after Close")
	}
	if t.inRegion.Load() {
		panic("parloop: Resize during an open region (Resize must run between regions, serialized with them)")
	}
	if n < 1 {
		n = 1
	}
	if n != t.workers {
		t.setWorkers(n)
	}
}

// runWorker executes one worker's share of a region, converting panics
// into a recorded value so the join can re-raise them. The last worker
// out hands the join token to the forker; a helper then yields once, as
// a forker parked at the join is readied onto the helper's processor and
// would otherwise wait for a thread wake while the helper polls.
func (t *Team) runWorker(body func(int), worker int) {
	defer func() {
		if r := recover(); r != nil {
			t.abortRegion(r, worker)
		}
		if t.pending.Add(-1) == 0 {
			t.done <- struct{}{}
			if worker != 0 {
				runtime.Gosched()
			}
		}
	}()
	body(worker)
}

// abortRegion handles a panic raised inside an open region: it records
// the first real panic (wrapped as a *PanicError with the worker's
// stack) and breaks the region barrier so teammates parked at a
// Barrier unwind instead of deadlocking on the dead worker. The
// barrierBroken sentinel those teammates raise while unwinding is
// discarded — only the original panic survives to the join.
func (t *Team) abortRegion(r any, worker int) {
	if _, ok := r.(barrierBroken); ok {
		return
	}
	t.panicMu.Lock()
	if !t.panicSet {
		t.panicked = &PanicError{Value: r, Worker: worker, Stack: debug.Stack()}
		t.panicSet = true
	}
	t.panicMu.Unlock()
	t.bar.breakBarrier()
}

// SetTracer attaches tr to the team; subsequent regions emit
// region-begin/end spans, barrier waits and per-worker chunk spans
// tagged with label (typically the job name), and Phase its spans. Like Resize, SetTracer
// must only be called between regions. A nil tracer detaches.
func (t *Team) SetTracer(tr *obs.Tracer, label string) {
	t.tracer = tr
	t.label = label
}

// Phase runs fn, one named phase of the caller's work, which may open
// regions or run serial code. With the team's tracer enabled it emits
// one KindPhase span over the call: Name "<label>/<name>" (name alone on
// an unlabeled team), Worker -1, A the team size. Disabled, it costs one
// atomic load and a direct call. Like a region, Phase runs on the
// goroutine that owns the team.
func (t *Team) Phase(name string, fn func()) {
	tr := t.tracer
	if !tr.Enabled() {
		fn()
		return
	}
	if t.label != "" {
		name = t.label + "/" + name
	}
	start := tr.Now()
	fn()
	end := tr.Now()
	tr.Emit(obs.Event{Kind: obs.KindPhase, At: end, Name: name, Worker: -1, Dur: end.Sub(start), A: int64(t.workers)})
}

// Tracer returns the attached tracer (nil when detached).
func (t *Team) Tracer() *obs.Tracer { return t.tracer }

// Workers returns the team size.
func (t *Team) Workers() int { return t.workers }

// SyncEvents returns the number of fork-join regions (synchronization
// events) the team has executed since creation. A team of one worker
// never synchronizes and always reports zero.
func (t *Team) SyncEvents() uint64 { return t.regions.Load() }

// ResetSyncEvents zeroes the synchronization-event counter.
func (t *Team) ResetSyncEvents() { t.regions.Store(0) }

// Epoch returns the team's barrier-epoch counter: a monotone value
// bumped at every region fork, region join and barrier release. All
// accesses a worker performs between two consecutive bumps observe the
// same epoch; accesses in different epochs are ordered by the fork,
// join or barrier between them. The dynamic loop-dependence checker
// (internal/check) uses this as the happens-before relation of the
// fork-join/barrier execution model: two accesses to the same element
// by different workers in the same epoch, at least one a write, are a
// loop-carried-dependence race. A one-worker team never bumps.
func (t *Team) Epoch() uint64 { return t.epoch.Load() }

// Close stops the helper goroutines. The team must not be used after
// Close. Close is idempotent.
func (t *Team) Close() {
	if t.closed.Swap(true) {
		return
	}
	for _, ch := range t.cmds {
		close(ch)
	}
}

// runSerial executes fn as worker 0 of a degenerate serial region,
// wrapping a panic as a *PanicError exactly like a real fork-join
// would, so callers see one failure contract regardless of team size.
func (t *Team) runSerial(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := r.(*PanicError); ok {
				panic(pe)
			}
			panic(&PanicError{Value: r, Worker: 0, Stack: debug.Stack()})
		}
	}()
	fn()
}

// fork runs body(worker) on every worker (0..Workers-1) and returns
// after all complete: one fork-join region, one synchronization event.
// A panic raised by any worker breaks the region barrier (so no
// teammate deadlocks), is wrapped as a *PanicError and re-raised on
// the caller after the join; the team remains usable.
func (t *Team) fork(body func(worker int)) {
	if t.closed.Load() {
		panic("parloop: team used after Close")
	}
	if t.workers == 1 {
		t.runSerial(func() { body(0) })
		return
	}
	if !t.inRegion.CompareAndSwap(false, true) {
		panic("parloop: concurrent regions on one team (regions must be externally serialized)")
	}
	defer t.inRegion.Store(false)
	t.regions.Add(1)
	t.epoch.Add(1) // fork: the region body is a new epoch
	tr := t.tracer
	traced := tr.Enabled()
	var start time.Time
	if traced {
		start = tr.Now()
		tr.Emit(obs.Event{Kind: obs.KindRegionBegin, At: start, Name: t.label, Worker: -1, A: int64(t.workers)})
	}
	t.pending.Store(int32(t.workers))
	for _, ch := range t.cmds {
		ch <- body
	}
	t.runWorker(body, 0)
	// The join polls only while every helper has taken its share: one
	// that was parked, or is waiting for a processor, runs sooner when
	// the forker blocks. It never yields (DESIGN §13).
	recv(t.done, t.spins.Load(), func() bool {
		return !slices.ContainsFunc(t.cmds, func(ch chan func(int)) bool { return len(ch) > 0 })
	})
	t.epoch.Add(1) // join: code after the region is a new epoch
	if traced {
		end := tr.Now()
		tr.Emit(obs.Event{Kind: obs.KindRegionEnd, At: end, Name: t.label, Worker: -1, Dur: end.Sub(start), A: int64(t.workers)})
	}
	t.panicMu.Lock()
	r, set := t.panicked, t.panicSet
	t.panicked, t.panicSet = nil, false
	t.panicMu.Unlock()
	if set {
		// The panic may have left the barrier broken or mid-cycle;
		// replace it so the team stays usable for further regions.
		t.bar = t.newBarrier()
		panic(r)
	}
}

// For executes body(i) for i in [0, n) in parallel using the Static
// schedule. It is the analogue of a C$doacross on the loop itself
// (Example 1). For n <= 0 it returns immediately without opening a
// region.
func (t *Team) For(n int, body func(i int)) {
	t.ForChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForChunked executes body(lo, hi) over disjoint contiguous ranges
// covering [0, n) using the Static schedule. Passing the range rather
// than individual indices lets the body hoist per-chunk setup (scratch
// buffers, the paper's pencil-sized work arrays) out of the inner loop.
func (t *Team) ForChunked(n int, body func(lo, hi int)) {
	t.forChunkedW(n, func(_, lo, hi int) { body(lo, hi) })
}

// forChunkedW is ForChunked's core: it additionally hands the body the
// executing worker's index.
func (t *Team) forChunkedW(n int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if t.workers == 1 || n == 1 {
		// A single worker or a single iteration opens no parallel
		// region: the paper's "serial fallback" for degenerate loops.
		if t.workers > 1 {
			// Degenerate loop on a real team still synchronizes once
			// (the region is opened before the trip count is known in
			// directive-based models). We run it inline but count it.
			t.regions.Add(1)
		}
		t.runSerial(func() { body(0, 0, n) })
		return
	}
	t.fork(func(w int) {
		lo, hi := StaticRange(n, t.workers, w)
		if lo < hi {
			t.runChunk(w, lo, hi, func(lo, hi int) { body(w, lo, hi) })
		}
	})
}

// runChunk executes one worker's chunk, emitting a per-chunk span when
// the team's tracer is enabled. The disabled path is a direct call.
func (t *Team) runChunk(w, lo, hi int, body func(lo, hi int)) {
	tr := t.tracer
	if !tr.Enabled() {
		body(lo, hi)
		return
	}
	start := tr.Now()
	body(lo, hi)
	end := tr.Now()
	tr.Emit(obs.Event{Kind: obs.KindChunk, At: end, Name: t.label, Worker: w, Dur: end.Sub(start), A: int64(lo), B: int64(hi)})
}

// StaticRange returns the half-open range [lo, hi) of iterations
// assigned to the given worker by the Static schedule for a loop of n
// iterations on workers workers. The first n%workers workers receive
// ceil(n/workers) iterations and the rest floor(n/workers), so the
// maximum per-worker share is exactly the ceil(n/p) of the paper's
// stair-step model (Table 3).
func StaticRange(n, workers, worker int) (lo, hi int) {
	if workers < 1 {
		panic(fmt.Sprintf("parloop: StaticRange workers must be >= 1, got %d", workers))
	}
	if worker < 0 || worker >= workers {
		panic(fmt.Sprintf("parloop: StaticRange worker %d out of range [0,%d)", worker, workers))
	}
	if n < 0 {
		n = 0
	}
	q, r := n/workers, n%workers
	if worker < r {
		lo = worker * (q + 1)
		hi = lo + q + 1
		return lo, hi
	}
	lo = r*(q+1) + (worker-r)*q
	return lo, lo + q
}

// WorkerCtx is the view a worker has of the parallel region it is
// running inside (Region). It provides the worker's identity and the
// collective operations available mid-region.
type WorkerCtx struct {
	team   *Team
	worker int
}

// ID returns this worker's index in [0, Workers()).
func (c *WorkerCtx) ID() int { return c.worker }

// Workers returns the team size.
func (c *WorkerCtx) Workers() int { return c.team.workers }

// Barrier blocks until every worker in the region has called Barrier.
// It counts as one synchronization event (the cost of separating two
// loop phases inside a merged region is a barrier, which is cheaper
// than a full fork-join but still a synchronization in the paper's
// accounting).
func (c *WorkerCtx) Barrier() {
	if c.team.workers == 1 {
		return
	}
	if c.worker == 0 {
		c.team.regions.Add(1)
	}
	tr := c.team.tracer
	if tr.Enabled() {
		start := tr.Now()
		c.team.bar.wait()
		end := tr.Now()
		tr.Emit(obs.Event{Kind: obs.KindBarrier, At: end, Name: c.team.label, Worker: c.worker, Dur: end.Sub(start)})
		return
	}
	c.team.bar.wait()
}

// Range returns this worker's Static-schedule share of a loop of n
// iterations. It is how merged loops (Example 2) and hoisted parent
// loops (Example 3) divide work without opening a new region.
func (c *WorkerCtx) Range(n int) (lo, hi int) {
	return StaticRange(n, c.team.workers, c.worker)
}

// For runs body(i) for this worker's Static share of [0, n): a loop
// inside an open region, costing no additional synchronization (until
// the caller decides a Barrier is needed). With a tracer enabled the
// share is recorded as one chunk span carrying the worker's identity
// and index range, so merged-region loop phases get the same
// attribution as standalone ForChunked loops.
func (c *WorkerCtx) For(n int, body func(i int)) {
	lo, hi := c.Range(n)
	if lo >= hi {
		return
	}
	c.team.runChunk(c.worker, lo, hi, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// Region opens one parallel region and runs body on every worker. All
// loops executed via ctx inside the region share the region's single
// fork-join synchronization; phases with dependencies between them are
// separated by ctx.Barrier(). This is the paper's Example 2 (merging
// loops under a common outer loop) and Example 3 (parallelizing a
// parent subroutine) in API form.
func (t *Team) Region(body func(ctx *WorkerCtx)) {
	t.fork(func(w int) {
		body(&WorkerCtx{team: t, worker: w})
	})
}

// barrier is a reusable cyclic barrier for a fixed party count. It can
// be broken (by a panicking teammate): a broken barrier releases every
// current and future waiter by raising the barrierBroken sentinel,
// which unwinds them out of the region instead of deadlocking them on
// a worker that will never arrive. A broken barrier stays broken; the
// team replaces it at the region join.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	// gen and broken change under mu; a waiter polls them without it
	// before it parks on cond (when spin is set).
	gen    atomic.Uint64
	broken atomic.Bool
	spin   bool
	// onRelease runs under mu exactly once per cycle, by the last
	// arriver, before any waiter is released: every access before the
	// barrier by any party happens before it, and every access after
	// the barrier happens after it.
	onRelease func()
}

// newBarrier builds a barrier for the team's workers whose release
// bumps the team's epoch counter, so barrier-separated loop phases are
// distinct epochs for the dependence checker.
func (t *Team) newBarrier() *barrier {
	b := &barrier{n: t.workers, spin: t.spins.Load(), onRelease: func() { t.epoch.Add(1) }}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	if b.broken.Load() {
		b.mu.Unlock()
		panic(barrierBroken{})
	}
	gen := b.gen.Load()
	b.count++
	if b.count == b.n {
		b.count = 0
		b.onRelease()
		b.gen.Add(1)
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()
	released := func() bool { return b.gen.Load() != gen || b.broken.Load() }
	if !b.spin || !poll(released, nil) {
		b.mu.Lock()
		for !released() {
			b.cond.Wait()
		}
		b.mu.Unlock()
	}
	if b.broken.Load() {
		panic(barrierBroken{})
	}
}

// breakBarrier marks the barrier broken and wakes every waiter.
func (b *barrier) breakBarrier() {
	b.mu.Lock()
	b.broken.Store(true)
	b.cond.Broadcast()
	b.mu.Unlock()
}
