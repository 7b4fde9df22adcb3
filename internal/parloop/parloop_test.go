package parloop

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func teams(t *testing.T) []*Team {
	t.Helper()
	sizes := []int{1, 2, 3, 4, 7}
	ts := make([]*Team, len(sizes))
	for i, n := range sizes {
		tm := NewTeam(n)
		t.Cleanup(tm.Close)
		ts[i] = tm
	}
	return ts
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, tm := range teams(t) {
		for _, n := range []int{0, 1, 2, 5, 17, 100, 1001} {
			hits := make([]int32, n)
			tm.For(n, func(i int) {
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Errorf("workers=%d n=%d: index %d hit %d times", tm.Workers(), n, i, h)
				}
			}
		}
	}
}

func TestForChunkedCoversDisjointRanges(t *testing.T) {
	for _, tm := range teams(t) {
		for _, n := range []int{1, 2, 6, 19, 128} {
			hits := make([]int32, n)
			tm.ForChunked(n, func(lo, hi int) {
				if lo >= hi {
					t.Errorf("empty chunk [%d,%d) delivered", lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Errorf("workers=%d n=%d: index %d hit %d times", tm.Workers(), n, i, h)
				}
			}
		}
	}
}

func TestStaticRangePartitionProperties(t *testing.T) {
	// Property: ranges are ascending, disjoint, cover [0,n), and the
	// largest share equals ceil(n/workers) when n >= workers (the
	// paper's stair-step critical path).
	f := func(nu uint16, wu uint8) bool {
		n := int(nu % 5000)
		w := int(wu%32) + 1
		prevHi := 0
		maxShare := 0
		for worker := 0; worker < w; worker++ {
			lo, hi := StaticRange(n, w, worker)
			if lo != prevHi || hi < lo {
				return false
			}
			if hi-lo > maxShare {
				maxShare = hi - lo
			}
			prevHi = hi
		}
		if prevHi != n {
			return false
		}
		wantMax := (n + w - 1) / w
		return maxShare == wantMax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestStaticRangeBalance(t *testing.T) {
	// Shares differ by at most one iteration.
	for _, w := range []int{1, 2, 5, 16, 128} {
		for _, n := range []int{0, 1, 15, 89, 1000} {
			mn, mx := 1<<30, 0
			for worker := 0; worker < w; worker++ {
				lo, hi := StaticRange(n, w, worker)
				s := hi - lo
				if s < mn {
					mn = s
				}
				if s > mx {
					mx = s
				}
			}
			if mx-mn > 1 {
				t.Errorf("w=%d n=%d: share spread %d..%d", w, n, mn, mx)
			}
		}
	}
}

func TestStaticRangePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"workers=0":  func() { StaticRange(10, 0, 0) },
		"worker=-1":  func() { StaticRange(10, 2, -1) },
		"worker=out": func() { StaticRange(10, 2, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestNewTeamClampsToOne(t *testing.T) {
	for _, n := range []int{0, -3} {
		tm := NewTeam(n)
		if got := tm.Workers(); got != 1 {
			t.Errorf("NewTeam(%d).Workers() = %d, want 1", n, got)
		}
		sum := 0
		tm.For(5, func(i int) { sum += i })
		if sum != 10 {
			t.Errorf("NewTeam(%d) team ran wrong: sum = %d, want 10", n, sum)
		}
		tm.Close()
	}
}

func TestSyncEventCounting(t *testing.T) {
	tm := NewTeam(3)
	defer tm.Close()
	tm.ResetSyncEvents()
	tm.For(100, func(int) {})             // 1 region
	tm.ForChunked(100, func(int, int) {}) // 1 region
	tm.Region(func(ctx *WorkerCtx) {})    // 1 region
	if got := tm.SyncEvents(); got != 3 {
		t.Errorf("SyncEvents = %d, want 3", got)
	}
	tm.Region(func(ctx *WorkerCtx) {
		ctx.Barrier() // +1
		ctx.Barrier() // +1
	})
	if got := tm.SyncEvents(); got != 6 {
		t.Errorf("SyncEvents after barriers = %d, want 6", got)
	}
	// Degenerate loop still counts one region on a real team.
	tm.For(1, func(int) {})
	if got := tm.SyncEvents(); got != 7 {
		t.Errorf("SyncEvents after degenerate loop = %d, want 7", got)
	}
	// n <= 0 opens no region.
	tm.For(0, func(int) { t.Error("body ran for n=0") })
	if got := tm.SyncEvents(); got != 7 {
		t.Errorf("SyncEvents after empty loop = %d, want 7", got)
	}
}

func TestSingleWorkerTeamOpensNoRegions(t *testing.T) {
	tm := NewTeam(1)
	defer tm.Close()
	tm.For(1000, func(int) {})
	tm.Region(func(ctx *WorkerCtx) {
		ctx.Barrier()
		ctx.For(10, func(int) {})
	})
	if got := tm.SyncEvents(); got != 0 {
		t.Errorf("single-worker team recorded %d sync events, want 0", got)
	}
}

func TestRegionMergedLoops(t *testing.T) {
	// Example 2: two loop phases under one region with a barrier between
	// them, where phase 2 reads what phase 1 wrote.
	for _, tm := range teams(t) {
		const n = 257
		a := make([]float64, n)
		b := make([]float64, n)
		tm.Region(func(ctx *WorkerCtx) {
			ctx.For(n, func(i int) { a[i] = float64(i) })
			ctx.Barrier()
			ctx.For(n, func(i int) {
				// Read a neighbor written (possibly) by another worker.
				j := (i + n/2) % n
				b[i] = 2 * a[j]
			})
		})
		for i := range b {
			j := (i + n/2) % n
			if b[i] != 2*float64(j) {
				t.Fatalf("workers=%d: b[%d] = %g, want %g", tm.Workers(), i, b[i], 2*float64(j))
			}
		}
	}
}

func TestRegionWorkerIdentity(t *testing.T) {
	tm := NewTeam(4)
	defer tm.Close()
	seen := make([]int32, 4)
	tm.Region(func(ctx *WorkerCtx) {
		if ctx.Workers() != 4 {
			t.Errorf("ctx.Workers() = %d, want 4", ctx.Workers())
		}
		atomic.AddInt32(&seen[ctx.ID()], 1)
	})
	for id, c := range seen {
		if c != 1 {
			t.Errorf("worker %d ran %d times, want 1", id, c)
		}
	}
}

func TestPanicPropagation(t *testing.T) {
	tm := NewTeam(4)
	defer tm.Close()
	func() {
		defer func() {
			pe, ok := recover().(*PanicError)
			if !ok || pe.Value != "boom" {
				t.Errorf("recovered %v, want *PanicError wrapping \"boom\"", pe)
				return
			}
			if len(pe.Stack) == 0 {
				t.Error("PanicError carries no stack")
			}
			if pe.Error() == "" {
				t.Error("PanicError.Error() is empty")
			}
		}()
		tm.For(100, func(i int) {
			if i == 57 {
				panic("boom")
			}
		})
	}()
	// The team must remain usable after a panicked region.
	var total atomic.Int64
	tm.For(100, func(i int) { total.Add(int64(i)) })
	if total.Load() != 4950 {
		t.Errorf("team broken after panic: sum = %d, want 4950", total.Load())
	}
}

func TestCloseIdempotentAndUseAfterClosePanics(t *testing.T) {
	tm := NewTeam(2)
	tm.Close()
	tm.Close() // must not panic
	defer func() {
		if recover() == nil {
			t.Error("use after Close should panic")
		}
	}()
	tm.For(10, func(int) {})
}
