package parloop

import (
	"sync"
	"sync/atomic"
	"testing"
)

// FuzzStaticRange is the partition property test for the Static
// schedule's range math: for every (n, workers) the per-worker ranges
// must tile [0, n) exactly — disjoint, exhaustive, in worker order —
// with shares differing by at most one iteration and the largest share
// equal to ceil(n/workers), the critical-path length of the paper's
// stair-step model.
func FuzzStaticRange(f *testing.F) {
	f.Add(uint16(0), uint8(1))
	f.Add(uint16(1), uint8(1))
	f.Add(uint16(15), uint8(4))
	f.Add(uint16(100), uint8(7))
	f.Add(uint16(1000), uint8(64))
	f.Fuzz(func(t *testing.T, nRaw uint16, wRaw uint8) {
		n := int(nRaw)
		workers := 1 + int(wRaw)%256
		prevHi := 0
		minShare, maxShare := n+1, -1
		for w := 0; w < workers; w++ {
			lo, hi := StaticRange(n, workers, w)
			if lo > hi {
				t.Fatalf("StaticRange(%d,%d,%d) = [%d,%d): inverted", n, workers, w, lo, hi)
			}
			if lo != prevHi {
				t.Fatalf("StaticRange(%d,%d,%d) starts at %d, want %d (gap or overlap)", n, workers, w, lo, prevHi)
			}
			prevHi = hi
			share := hi - lo
			if share < minShare {
				minShare = share
			}
			if share > maxShare {
				maxShare = share
			}
		}
		if prevHi != n {
			t.Fatalf("StaticRange(%d,%d,·) covers [0,%d), want [0,%d)", n, workers, prevHi, n)
		}
		if maxShare-minShare > 1 {
			t.Fatalf("StaticRange(%d,%d,·): share spread %d..%d, want within 1", n, workers, minShare, maxShare)
		}
		ceil := (n + workers - 1) / workers
		if maxShare != ceil && n > 0 {
			t.Fatalf("StaticRange(%d,%d,·): max share %d, want ceil = %d", n, workers, maxShare, ceil)
		}
	})
}

// fuzzTeams caches teams per worker count so cover fuzzing does not
// start and stop goroutines on every input.
var fuzzTeams sync.Map // int -> *Team

func fuzzTeam(workers int) *Team {
	if tm, ok := fuzzTeams.Load(workers); ok {
		return tm.(*Team)
	}
	tm, _ := fuzzTeams.LoadOrStore(workers, NewTeam(workers))
	return tm.(*Team)
}

// FuzzForChunkedCover is the partition property test of the loop deal
// executed on a real team: for all (n, workers) ForChunked must visit
// every iteration of [0, n) exactly once, each chunk being one in-range
// worker's StaticRange, dealt at most once — the n <= 1 serial fallback
// included.
func FuzzForChunkedCover(f *testing.F) {
	f.Add(uint16(0), uint8(1))
	f.Add(uint16(1), uint8(3))
	f.Add(uint16(100), uint8(4))
	f.Add(uint16(255), uint8(7))
	f.Add(uint16(97), uint8(2))
	f.Fuzz(func(t *testing.T, nRaw uint16, wRaw uint8) {
		n := int(nRaw) % 512
		workers := 1 + int(wRaw)%8
		tm := fuzzTeam(workers)
		visits := make([]int32, n)
		dealt := make([]int32, workers)
		tm.ForChunked(n, func(lo, hi int) {
			w := 0
			for w < workers {
				if wlo, whi := StaticRange(n, workers, w); wlo == lo && whi == hi {
					break
				}
				w++
			}
			if w == workers || lo >= hi {
				t.Errorf("n=%d workers=%d: chunk [%d,%d) is no worker's StaticRange", n, workers, lo, hi)
				return
			}
			if atomic.AddInt32(&dealt[w], 1) > 1 {
				t.Errorf("n=%d workers=%d: worker %d's chunk [%d,%d) dealt twice", n, workers, w, lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&visits[i], 1)
			}
		})
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("n=%d workers=%d: index %d visited %d times, want 1", n, workers, i, v)
			}
		}
	})
}
