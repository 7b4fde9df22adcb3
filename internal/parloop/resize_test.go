package parloop

import (
	"sync"
	"sync/atomic"
	"testing"
)

// checkTeamInvariants runs a loop on the team and verifies the
// worker-count invariants: every index visited exactly once, every
// observed worker id in [0, Workers()), and at most Workers() distinct
// workers participating.
func checkTeamInvariants(t *testing.T, tm *Team, n int) {
	t.Helper()
	visits := make([]int32, n)
	var seen sync.Map
	tm.Region(func(ctx *WorkerCtx) {
		if ctx.Workers() != tm.Workers() {
			t.Errorf("ctx.Workers() = %d, team Workers() = %d", ctx.Workers(), tm.Workers())
		}
		w := ctx.ID()
		if w < 0 || w >= tm.Workers() {
			t.Errorf("worker id %d out of range [0,%d)", w, tm.Workers())
		}
		seen.Store(w, true)
		ctx.For(n, func(i int) {
			atomic.AddInt32(&visits[i], 1)
		})
	})
	for i, v := range visits {
		if v != 1 {
			t.Fatalf("index %d visited %d times, want 1", i, v)
		}
	}
	distinct := 0
	seen.Range(func(any, any) bool { distinct++; return true })
	if distinct > tm.Workers() {
		t.Errorf("%d distinct workers participated on a %d-worker team", distinct, tm.Workers())
	}
}

func TestResizeWorkerInvariants(t *testing.T) {
	tm := NewTeam(2)
	defer tm.Close()
	for _, n := range []int{4, 1, 7, 3, 2} {
		tm.Resize(n)
		if got := tm.Workers(); got != n {
			t.Fatalf("after Resize(%d): Workers() = %d", n, got)
		}
		checkTeamInvariants(t, tm, 101)
	}
}

func TestResizeClampsToOne(t *testing.T) {
	tm := NewTeam(3)
	defer tm.Close()
	tm.Resize(-2)
	if got := tm.Workers(); got != 1 {
		t.Fatalf("Resize(-2): Workers() = %d, want 1", got)
	}
	checkTeamInvariants(t, tm, 17)
}

func TestResizeSameSizeNoOp(t *testing.T) {
	tm := NewTeam(3)
	defer tm.Close()
	cmds := tm.cmds
	tm.Resize(3)
	if len(tm.cmds) != len(cmds) {
		t.Fatalf("Resize to same size changed helper count")
	}
	for i := range cmds {
		if tm.cmds[i] != cmds[i] {
			t.Errorf("Resize to same size replaced helper channel %d", i)
		}
	}
}

func TestResizePreservesSyncEvents(t *testing.T) {
	tm := NewTeam(2)
	defer tm.Close()
	tm.For(10, func(int) {})
	before := tm.SyncEvents()
	if before != 1 {
		t.Fatalf("SyncEvents before resize = %d, want 1", before)
	}
	tm.Resize(4)
	if got := tm.SyncEvents(); got != before {
		t.Errorf("Resize changed SyncEvents: %d -> %d", before, got)
	}
	tm.For(10, func(int) {})
	if got := tm.SyncEvents(); got != before+1 {
		t.Errorf("SyncEvents after resized region = %d, want %d", got, before+1)
	}
}

func TestResizeAfterClosePanics(t *testing.T) {
	tm := NewTeam(2)
	tm.Close()
	defer func() {
		if recover() == nil {
			t.Error("Resize after Close should panic")
		}
	}()
	tm.Resize(3)
}

// TestResizeDuringOpenRegionPanics is the regression test for the
// Resize-vs-in-flight-region audit: a resize landing while a ForChunked
// region is open would close the helper channels mid-dispatch and
// change the worker count the barrier and the Static deal read. The
// team must refuse with a panic instead of corrupting the loop, and
// stay usable afterwards.
func TestResizeDuringOpenRegionPanics(t *testing.T) {
	tm := NewTeam(3)
	defer tm.Close()
	inRegion := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var once sync.Once
		tm.ForChunked(64, func(lo, hi int) {
			once.Do(func() { close(inRegion) })
			<-release
		})
	}()
	<-inRegion
	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		tm.Resize(5)
		return false
	}()
	close(release)
	<-done
	if !panicked {
		t.Fatal("Resize during an open ForChunked region did not panic")
	}
	if got := tm.Workers(); got != 3 {
		t.Fatalf("rejected Resize changed Workers() to %d", got)
	}
	checkTeamInvariants(t, tm, 57)
}

// TestConcurrentRegionsPanic: two goroutines opening regions on one
// team is the same contract violation from the other side; the second
// fork must fail fast rather than share the first region's barrier.
func TestConcurrentRegionsPanic(t *testing.T) {
	tm := NewTeam(2)
	defer tm.Close()
	inRegion := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var once sync.Once
		tm.ForChunked(8, func(lo, hi int) {
			once.Do(func() { close(inRegion) })
			<-release
		})
	}()
	<-inRegion
	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		tm.For(8, func(int) {})
		return false
	}()
	close(release)
	<-done
	if !panicked {
		t.Fatal("second concurrent region on one team did not panic")
	}
	checkTeamInvariants(t, tm, 33)
}

// TestResizeBarrierMatchesNewSize exercises a barrier-bearing region
// after growth and shrink: a stale barrier sized for the old team would
// deadlock or mis-release.
func TestResizeBarrierMatchesNewSize(t *testing.T) {
	tm := NewTeam(4)
	defer tm.Close()
	for _, n := range []int{2, 5, 1, 3} {
		tm.Resize(n)
		var phase1 atomic.Int32
		ok := true
		tm.Region(func(ctx *WorkerCtx) {
			phase1.Add(1)
			ctx.Barrier()
			if int(phase1.Load()) != tm.Workers() {
				ok = false
			}
		})
		if !ok {
			t.Fatalf("Resize(%d): barrier released before all workers arrived", n)
		}
	}
}
