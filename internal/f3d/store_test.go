package f3d

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/euler"
	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/sched"
)

// emptyZoneStore drops every buffer the zone store holds, so the next
// solver of any shape starts on new storage.
func emptyZoneStore() {
	zoneStore.Lock()
	defer zoneStore.Unlock()
	clear(zoneStore.held)
	zoneStore.held, zoneStore.bytes = zoneStore.held[:0], 0
}

// reuseRun is what a finished job exposes: its residual history and
// final state, and the address of its first zone's Q storage.
type reuseRun struct {
	residuals []float64
	state     []linalg.Vec5
	q         *linalg.Vec5
}

// runReuseJob serves one f3d.Job of the reuse cases' shape to the end,
// as f3dd does, on a two-processor scheduler.
func runReuseJob(t *testing.T, pulse float64) reuseRun {
	t.Helper()
	job, err := NewJob("reuse", DefaultConfig(grid.Single(13, 11, 9)), 4, pulse)
	if err != nil {
		t.Fatal(err)
	}
	var run reuseRun
	job.WithFinalHook(func(s Solver) {
		q := s.Zones()[0].Q.Vec
		run.state, run.q = append([]linalg.Vec5(nil), q...), &q[0]
	})
	s := sched.New(sched.Config{Procs: 2})
	defer s.Close()
	h, err := s.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	run.residuals = job.History().Residuals
	return run
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

// A job run on the storage a job of the same shape at another pulse
// left behind gives the history and final state of a job on new
// storage, bit for bit.
func TestReuseAfterOtherPulseIsBitwise(t *testing.T) {
	emptyZoneStore()
	fresh := runReuseJob(t, 0.02)
	other := runReuseJob(t, 0.3)
	reused := runReuseJob(t, 0.02)
	if reused.q != other.q {
		t.Fatal("the third job did not run on the storage the second released")
	}
	if sameBits(other.residuals, fresh.residuals) {
		t.Fatal("pulses 0.3 and 0.02 gave one history: the case does not tell stale state apart")
	}
	if !sameBits(reused.residuals, fresh.residuals) {
		t.Fatalf("reused residuals %v, want %v", reused.residuals, fresh.residuals)
	}
	for i := range fresh.state {
		if reused.state[i] != fresh.state[i] {
			t.Fatalf("point %d: reused state %v, want %v", i, reused.state[i], fresh.state[i])
		}
	}
}

// A solver built on reused storage starts from zeroed Q, R and point
// records, as one on new storage does: nothing of the last solver's
// state is readable before the new one writes its own.
func TestReuseStartsZeroed(t *testing.T) {
	cfg := DefaultConfig(grid.Single(13, 11, 9))
	emptyZoneStore()
	old, err := NewCacheSolver(cfg, CacheOptions{})
	if err != nil {
		t.Fatal(err)
	}
	InitPulse(old, 0.3)
	old.Step()
	q := &old.Zones()[0].Q.Vec[0]
	old.Close()
	s, err := NewCacheSolver(cfg, CacheOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	zs := s.Zones()[0]
	if &zs.Q.Vec[0] != q {
		t.Fatal("the second solver did not take the first one's storage")
	}
	for i := range zs.Q.Vec {
		if zs.Q.Vec[i] != (linalg.Vec5{}) || zs.R.Vec[i] != (linalg.Vec5{}) || zs.pts[i] != (euler.PointState{}) {
			t.Fatalf("point %d of reused storage not zeroed: Q %v, R %v, pts %+v", i, zs.Q.Vec[i], zs.R.Vec[i], zs.pts[i])
		}
	}
}

// Two solvers of one shape live at once never share storage, though
// both build from a store holding buffers of that shape; under -race
// their concurrent steps would also report a shared buffer.
func TestReuseConcurrentSolversShareNothing(t *testing.T) {
	cfg := DefaultConfig(grid.Single(13, 11, 9))
	pulses := []float64{0.02, 0.1}
	history := func(s *CacheSolver, pulse float64) []float64 {
		InitPulse(s, pulse)
		var h []float64
		for range 3 {
			h = append(h, s.Step().Residual)
		}
		return h
	}
	emptyZoneStore()
	want := make([][]float64, len(pulses))
	for i, p := range pulses { // closing these leaves two buffers in the store
		s, err := NewCacheSolver(cfg, CacheOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = history(s, p)
		s.Close()
	}
	got := make([][]float64, len(pulses))
	type storage struct {
		q, r *linalg.Vec5
		pts  *euler.PointState
	}
	held := make([]storage, len(pulses))
	var built, stepped sync.WaitGroup
	built.Add(len(pulses))
	stepped.Add(len(pulses))
	for i, p := range pulses {
		go func() {
			defer stepped.Done()
			s, err := NewCacheSolver(cfg, CacheOptions{})
			if err != nil {
				t.Error(err)
				built.Done()
				return
			}
			zs := s.Zones()[0]
			held[i] = storage{&zs.Q.Vec[0], &zs.R.Vec[0], &zs.pts[0]}
			built.Done()
			built.Wait() // both solvers are live before either steps or closes
			got[i] = history(s, p)
			s.Close()
		}()
	}
	stepped.Wait()
	if a, b := held[0], held[1]; a.q == b.q || a.r == b.r || a.pts == b.pts {
		t.Error("two live solvers share zone storage")
	}
	for i := range pulses {
		if !sameBits(got[i], want[i]) {
			t.Errorf("pulse %v: residuals %v, want %v", pulses[i], got[i], want[i])
		}
	}
}

// The second solver of a shape takes the first one's zone storage: it
// allocates less than a tenth of what the first did for it. The shape
// is serve_solo's medium job.
func TestReuseSecondSolverAllocatesLittle(t *testing.T) {
	cfg := DefaultConfig(grid.Single(41, 33, 29))
	storage := uint64(128 * cfg.Case.Points()) // Q, R and a point record: 40 + 40 + 48 B a point
	build := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := NewCacheSolver(cfg, CacheOptions{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		return after.TotalAlloc - before.TotalAlloc
	}
	emptyZoneStore()
	if first := build(); first < storage {
		t.Fatalf("first solver allocated %d B, less than its %d B of zone storage", first, storage)
	}
	if second := build(); second >= storage/10 {
		t.Fatalf("second solver allocated %d B, want < %d (a tenth of its zone storage)", second, storage/10)
	}
}

// The store keeps at most zoneStoreSlots buffers and zoneStoreBytes
// bytes, evicting the oldest, and drops a buffer larger than itself.
func TestReuseStoreIsBounded(t *testing.T) {
	emptyZoneStore()
	defer emptyZoneStore()
	for n := 1; n <= 2*zoneStoreSlots; n++ {
		giveZoneBuf(zoneBuf{q: make([]linalg.Vec5, n), r: make([]linalg.Vec5, n)})
	}
	if got := len(zoneStore.held); got != zoneStoreSlots {
		t.Fatalf("store holds %d buffers, want %d", got, zoneStoreSlots)
	}
	if n := len(zoneStore.held[0].q); n != zoneStoreSlots+1 {
		t.Fatalf("oldest held buffer has %d points, want %d (the older ones evicted)", n, zoneStoreSlots+1)
	}
	big := zoneStoreBytes / 80 / 3 // three of these overflow the byte bound
	for range 3 {
		giveZoneBuf(zoneBuf{q: make([]linalg.Vec5, big), r: make([]linalg.Vec5, big)})
	}
	if zoneStore.bytes > zoneStoreBytes || len(zoneStore.held) > zoneStoreSlots {
		t.Fatalf("store holds %d B in %d buffers, want at most %d B in %d", zoneStore.bytes, len(zoneStore.held), zoneStoreBytes, zoneStoreSlots)
	}
	giveZoneBuf(zoneBuf{q: make([]linalg.Vec5, zoneStoreBytes/80+1), r: make([]linalg.Vec5, zoneStoreBytes/80+1)})
	if n := len(zoneStore.held[len(zoneStore.held)-1].q); n != big {
		t.Fatalf("newest held buffer has %d points, want %d: an oversized buffer must be dropped", n, big)
	}
}
