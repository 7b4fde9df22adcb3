package model_test

import (
	"testing"

	"repro/internal/model"
	"repro/internal/sched"
)

// FuzzPlateauProcs fuzzes the stair-step plateau enumeration over
// (m, maxProcs) and checks its defining properties: the list starts at
// 1, is strictly increasing, is bounded by min(m, maxProcs), tops out
// exactly at the allocator's PlateauGrant(m, maxProcs), and every
// entry past 1 is a genuine speedup jump point — ceil(m/p) strictly
// drops relative to p-1 — while 1 always appears.
func FuzzPlateauProcs(f *testing.F) {
	f.Add(15, 15)
	f.Add(15, 7)
	f.Add(1, 1)
	f.Add(97, 32)
	f.Add(1024, 64)
	f.Fuzz(func(t *testing.T, m, maxProcs int) {
		if m < 1 || m > 1<<16 || maxProcs < 1 || maxProcs > 1<<16 {
			t.Skip()
		}
		ps := model.PlateauProcs(m, maxProcs)
		if len(ps) == 0 || ps[0] != 1 {
			t.Fatalf("PlateauProcs(%d, %d) = %v, must contain 1 first", m, maxProcs, ps)
		}
		bound := m
		if maxProcs < bound {
			bound = maxProcs
		}
		ceil := func(p int) int { return (m + p - 1) / p }
		for i, p := range ps {
			if i > 0 && p <= ps[i-1] {
				t.Fatalf("PlateauProcs(%d, %d) = %v not strictly increasing at %d", m, maxProcs, ps, i)
			}
			if p > bound {
				t.Fatalf("PlateauProcs(%d, %d) = %v exceeds min(m, maxProcs) = %d", m, maxProcs, ps, bound)
			}
			if p > 1 && ceil(p) >= ceil(p-1) {
				t.Fatalf("PlateauProcs(%d, %d): %d is not a jump point (ceil %d vs %d)",
					m, maxProcs, p, ceil(p), ceil(p-1))
			}
		}
		// The top plateau is exactly what the allocator would grant
		// with the whole machine available — the two packages must
		// agree on the stair-step geometry.
		if top := ps[len(ps)-1]; top != sched.PlateauGrant(m, maxProcs) {
			t.Fatalf("top plateau %d != PlateauGrant(%d, %d) = %d",
				top, m, maxProcs, sched.PlateauGrant(m, maxProcs))
		}
		// If the machine can hold all m units, m itself is a plateau.
		if maxProcs >= m && ps[len(ps)-1] != m {
			t.Fatalf("PlateauProcs(%d, %d) = %v missing m itself", m, maxProcs, ps)
		}
	})
}

// FuzzMaxParallelism fuzzes the M a profile pays for over two loop
// classes: M is at least 1 and at most the largest class parallelism
// (or 1), every M above 1 is the parallelism of a class whose region
// clears Table 1's two-processor bar at a 100 % budget, and growing
// either class's work never lowers M.
func FuzzMaxParallelism(f *testing.F) {
	f.Add(2e7, 8, 4, 1000.0, 4, 1, 1.5, false)
	f.Add(214_718.0, 7, 1, 5.67e6, 25, 1, 10.0, true)
	f.Add(4e5, 2, 1, 0.0, 0, 0, 1.0, false)
	f.Fuzz(func(t *testing.T, w0 float64, p0, s0 int, w1 float64, p1, s1 int, grow float64, second bool) {
		ok := func(w float64, p, s int) bool {
			return w >= 0 && w <= 1e18 && p >= -4 && p <= 1<<20 && s >= 0 && s <= 64
		}
		if !ok(w0, p0, s0) || !ok(w1, p1, s1) || !(grow >= 1 && grow <= 1e6) {
			t.Skip()
		}
		sp := model.StepProfile{Loops: []model.LoopClass{
			{WorkCycles: w0, Parallelism: p0, SyncEvents: s0},
			{WorkCycles: w1, Parallelism: p1, SyncEvents: s1},
		}}
		m := sp.MaxParallelism()
		if m < 1 || m > max(1, p0, p1) {
			t.Fatalf("M = %d outside [1, max(1, %d, %d)]", m, p0, p1)
		}
		if m > 1 {
			paid := false
			for _, l := range sp.Loops {
				paid = paid || l.Parallelism == m &&
					model.MinWorkPerLoop(2, model.ForkCycles, 1) <= l.WorkCycles/float64(max(l.SyncEvents, 1))
			}
			if !paid {
				t.Fatalf("M = %d but no class of that parallelism clears the bar: %+v", m, sp.Loops)
			}
		}
		i := 0
		if second {
			i = 1
		}
		sp.Loops[i].WorkCycles *= grow
		if got := sp.MaxParallelism(); got < m {
			t.Fatalf("class %d's work ×%g lowered M from %d to %d", i, grow, m, got)
		}
	})
}
