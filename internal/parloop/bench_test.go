package parloop

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
)

// BenchmarkForkJoinOverhead measures the cost of one empty parallel
// region for a range of team sizes. With an empty body worker 0 joins
// at once, so this times a handoff between goroutines, not what a
// region of real work pays: that is BenchmarkHelperLag's region − S
// (model.RegionNs).
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

// spinFor keeps the calling goroutine busy for d without yielding.
func spinFor(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// BenchmarkHelperLag measures the wake cost a region pays as it is
// paid: after a serial gap G on worker 0, a two-worker region forks and
// both workers stay busy for S. It reports the helper's start lag
// (fork to the helper's first instruction, p50 and p90), the median
// region time as a multiple of S — 1.00 when the helper starts at once,
// 2 when the region effectively runs serially — and the median region
// time less S, the cost of a region on a running team (model.RegionNs).
func BenchmarkHelperLag(b *testing.B) {
	for _, g := range []time.Duration{0, 50 * time.Microsecond, time.Millisecond} {
		for _, s := range []time.Duration{10 * time.Microsecond, 50 * time.Microsecond, 200 * time.Microsecond, time.Millisecond} {
			b.Run(fmt.Sprintf("G=%v/S=%v", g, s), func(b *testing.B) {
				tm := NewTeam(2)
				defer tm.Close()
				lags := make([]float64, b.N)
				ratios := make([]float64, b.N)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					spinFor(g)
					fork := time.Now()
					tm.Region(func(ctx *WorkerCtx) {
						if ctx.ID() == 1 {
							lags[i] = float64(time.Since(fork)) / 1e3
						}
						spinFor(s)
					})
					ratios[i] = float64(time.Since(fork)) / float64(s)
				}
				b.StopTimer()
				slices.Sort(lags)
				slices.Sort(ratios)
				b.ReportMetric(lags[len(lags)/2], "lag-p50-us")
				b.ReportMetric(lags[len(lags)*9/10], "lag-p90-us")
				b.ReportMetric(ratios[len(ratios)/2], "region/S")
				b.ReportMetric((ratios[len(ratios)/2]-1)*float64(s)/1e3, "region-S-us")
			})
		}
	}
}
