package parloop

import (
	"sync"
	"testing"
)

// TestPhaseSerialTeamNeverBumps: a one-worker team opens no real
// regions and must keep its phase at zero — a single executor cannot
// race itself.
func TestPhaseSerialTeamNeverBumps(t *testing.T) {
	tm := NewTeam(1)
	defer tm.Close()
	tm.For(10, func(int) {})
	tm.Region(func(ctx *WorkerCtx) {
		ctx.Barrier()
		ctx.For(5, func(int) {})
	})
	if got := tm.Epoch(); got != 0 {
		t.Errorf("serial team Epoch() = %d, want 0", got)
	}
}

// TestPhaseForkJoinBumpsTwice: each fork-join region is its own epoch,
// and the code after it another.
func TestPhaseForkJoinBumpsTwice(t *testing.T) {
	tm := NewTeam(3)
	defer tm.Close()
	if got := tm.Epoch(); got != 0 {
		t.Fatalf("fresh team Epoch() = %d, want 0", got)
	}
	tm.For(30, func(int) {})
	if got := tm.Epoch(); got != 2 {
		t.Errorf("after one region Epoch() = %d, want 2 (fork + join)", got)
	}
	tm.For(30, func(int) {})
	if got := tm.Epoch(); got != 4 {
		t.Errorf("after two regions Epoch() = %d, want 4", got)
	}
}

// TestPhaseBarrierSeparatesEpochs: inside a region, every worker
// observes one phase before the barrier and the next phase after it —
// the property the dependence checker's happens-before relation is
// built on.
func TestPhaseBarrierSeparatesEpochs(t *testing.T) {
	const workers = 4
	tm := NewTeam(workers)
	defer tm.Close()
	var mu sync.Mutex
	pre := make(map[uint64]bool)
	post := make(map[uint64]bool)
	tm.Region(func(ctx *WorkerCtx) {
		p := tm.Epoch()
		mu.Lock()
		pre[p] = true
		mu.Unlock()
		ctx.Barrier()
		q := tm.Epoch()
		mu.Lock()
		post[q] = true
		mu.Unlock()
	})
	if len(pre) != 1 || len(post) != 1 {
		t.Fatalf("phases not uniform across workers: pre %v post %v", pre, post)
	}
	var prePhase, postPhase uint64
	for p := range pre {
		prePhase = p
	}
	for p := range post {
		postPhase = p
	}
	if postPhase != prePhase+1 {
		t.Errorf("barrier bumped phase %d -> %d, want +1", prePhase, postPhase)
	}
	// Region fork bumped once (phase 1 inside), barrier once (2), join
	// once (3).
	if got := tm.Epoch(); got != 3 {
		t.Errorf("after region with one barrier Epoch() = %d, want 3", got)
	}
}

// TestPhaseSurvivesResizeAndPanic: the barrier installed by Resize and
// the replacement barrier installed after a worker panic must both stay
// wired to the epoch counter.
func TestPhaseSurvivesResizeAndPanic(t *testing.T) {
	tm := NewTeam(2)
	defer tm.Close()
	tm.Resize(3)
	start := tm.Epoch()
	tm.Region(func(ctx *WorkerCtx) { ctx.Barrier() })
	if got := tm.Epoch(); got != start+3 {
		t.Fatalf("after resize, region with barrier moved phase %d -> %d, want +3", start, got)
	}
	func() {
		defer func() { recover() }()
		tm.Region(func(ctx *WorkerCtx) {
			if ctx.ID() == 1 {
				panic("boom")
			}
			ctx.Barrier()
		})
	}()
	start = tm.Epoch()
	tm.Region(func(ctx *WorkerCtx) { ctx.Barrier() })
	if got := tm.Epoch(); got != start+3 {
		t.Errorf("after panic recovery, region with barrier moved phase %d -> %d, want +3", start, got)
	}
}
