package euler

import (
	"context"
	"testing"

	"repro/internal/sched"
)

var benchState = Prim{Rho: 1.1, U: 0.6, V: -0.2, W: 0.1, P: 0.9}

func BenchmarkFlux(b *testing.B) {
	u := benchState.Cons()
	for i := 0; i < b.N; i++ {
		_ = Flux(X, u)
	}
}

func BenchmarkJacobian(b *testing.B) {
	u := benchState.Cons()
	for i := 0; i < b.N; i++ {
		_ = Jacobian(X, u)
	}
}

func BenchmarkEigensystem(b *testing.B) {
	u := benchState.Cons()
	for i := 0; i < b.N; i++ {
		_ = Eigensystem(Z, u)
	}
}

func BenchmarkPrimFromCons(b *testing.B) {
	u := benchState.Cons()
	for i := 0; i < b.N; i++ {
		_ = PrimFromCons(u)
	}
}

func BenchmarkSpectralRadius(b *testing.B) {
	u := benchState.Cons()
	for i := 0; i < b.N; i++ {
		_ = SpectralRadius(Y, u)
	}
}

// BenchmarkSweepPoint times one point of a SweepJob's sweep on a
// one-processor grant (ns/point), the reading sweepWorkPerPoint is set
// from at the f3d step's one-processor flop rate.
func BenchmarkSweepPoint(b *testing.B) {
	const points = 4096
	s := sched.New(sched.Config{Procs: 1, QueueDepth: 1})
	defer s.Close()
	h, err := s.Submit(NewSweepJob("sweep", points, b.N))
	if err != nil {
		b.Fatal(err)
	}
	if err := h.Wait(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*points), "ns/point")
}
