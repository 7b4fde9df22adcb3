package parloop

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
)

// BenchmarkForkJoinOverhead measures the cost of one empty parallel
// region — the synchronization cost of the paper's Table 1 — for a
// range of team sizes.
func BenchmarkForkJoinOverhead(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			tm := NewTeam(w)
			defer tm.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tm.For(w, func(int) {})
			}
		})
	}
}

// BenchmarkColdFork measures a fork onto a parked helper: a two-worker
// region opened after its helper has idled for a millisecond, unlike
// BenchmarkForkJoinOverhead's back-to-back regions. It reports the p50
// lag from the fork to the helper starting its share (start-µs) and of
// the whole empty region (region-µs). model.ForkCycles is checked
// against a served break-even, not this reading (DESIGN §12).
func BenchmarkColdFork(b *testing.B) {
	tm := NewTeam(2)
	defer tm.Close()
	start := make([]time.Duration, b.N)
	region := make([]time.Duration, b.N)
	for i := range b.N {
		time.Sleep(time.Millisecond)
		var started time.Time
		t0 := time.Now()
		tm.For(2, func(w int) {
			if w == 1 {
				started = time.Now()
			}
		})
		region[i], start[i] = time.Since(t0), started.Sub(t0)
	}
	p50 := func(d []time.Duration) float64 {
		slices.Sort(d)
		return float64(d[len(d)/2]) / float64(time.Microsecond)
	}
	b.ReportMetric(p50(start), "start-µs")
	b.ReportMetric(p50(region), "region-µs")
}

// BenchmarkBarrier measures a bare barrier inside an open region (the
// cheaper synchronization available to merged loop phases).
func BenchmarkBarrier(b *testing.B) {
	for _, w := range []int{2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			tm := NewTeam(w)
			defer tm.Close()
			b.ResetTimer()
			tm.Region(func(ctx *WorkerCtx) {
				for i := 0; i < b.N; i++ {
					ctx.Barrier()
				}
			})
		})
	}
}

// BenchmarkSchedulesUniform compares schedules on uniform iterations,
// where Static should win on overhead.
func BenchmarkSchedulesUniform(b *testing.B) {
	tm := NewTeam(runtime.GOMAXPROCS(0))
	defer tm.Close()
	const n = 1 << 14
	data := make([]float64, n)
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := data[i]
			data[i] = v*v + 1
		}
	}
	for _, sched := range []Schedule{Static, StaticCyclic, Dynamic, Guided} {
		b.Run(sched.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tm.ForSched(n, sched, 64, body)
			}
		})
	}
}

func BenchmarkSumFloat64(b *testing.B) {
	tm := NewTeam(runtime.GOMAXPROCS(0))
	defer tm.Close()
	const n = 1 << 16
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i)
	}
	b.SetBytes(n * 8)
	for i := 0; i < b.N; i++ {
		SumFloat64(tm, n, func(j int) float64 { return data[j] })
	}
}

func BenchmarkCollapse2VsNested(b *testing.B) {
	tm := NewTeam(runtime.GOMAXPROCS(0))
	defer tm.Close()
	const n1, n2 = 64, 256
	data := make([]float64, n1*n2)
	b.Run("nested", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tm.ForNested(n1, n2, func(x, y int) { data[x*n2+y] += 1 })
		}
	})
	b.Run("collapse2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tm.Collapse2(n1, n2, func(x, y int) { data[x*n2+y] += 1 })
		}
	})
}

func BenchmarkSections(b *testing.B) {
	tm := NewTeam(4)
	defer tm.Close()
	work := func() {
		s := 0.0
		for i := 0; i < 1000; i++ {
			s += float64(i)
		}
		_ = s
	}
	tasks := []func(){work, work, work, work}
	for i := 0; i < b.N; i++ {
		tm.Sections(tasks...)
	}
}
