package parloop

import (
	"fmt"
	"runtime"
	"testing"
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
