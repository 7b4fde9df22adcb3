package linalg

import (
	"math/rand"
	"testing"
)

// benchLanes builds Lanes bench systems of order n plus working copies.
func benchLanes(n int) (src, work [4][Lanes][]float64) {
	rng := rand.New(rand.NewSource(21))
	for l := 0; l < Lanes; l++ {
		for k := 0; k < 4; k++ {
			src[k][l] = make([]float64, n)
			work[k][l] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			src[0][l][i] = rng.Float64() - 0.5
			src[1][l][i] = 3 + rng.Float64()
			src[2][l][i] = rng.Float64() - 0.5
			src[3][l][i] = rng.Float64()
		}
	}
	return
}

// BenchmarkSolveTridiagBatch compares the lane-batched tridiagonal
// solve against the equivalent loop of five scalar solves — the
// interleaving is where the recurrence latency hides.
func BenchmarkSolveTridiagBatch(b *testing.B) {
	const n = 256
	src, work := benchLanes(n)
	reload := func() {
		for k := 0; k < 4; k++ {
			for l := 0; l < Lanes; l++ {
				copy(work[k][l], src[k][l])
			}
		}
	}
	b.Run("batch5", func(b *testing.B) {
		b.SetBytes(int64(Lanes * n * 8))
		for i := 0; i < b.N; i++ {
			reload()
			SolveTridiag5(&work[0], &work[1], &work[2], &work[3], n)
		}
	})
	b.Run("scalar-loop", func(b *testing.B) {
		b.SetBytes(int64(Lanes * n * 8))
		for i := 0; i < b.N; i++ {
			reload()
			for l := 0; l < Lanes; l++ {
				SolveTridiag(work[0][l], work[1][l], work[2][l], work[3][l])
			}
		}
	})
}

// BenchmarkSolvePentadiagBatch compares the lane-batched pentadiagonal
// solve against the equivalent loop of five scalar solves.
func BenchmarkSolvePentadiagBatch(b *testing.B) {
	const n = 256
	rng := rand.New(rand.NewSource(22))
	var src, work [6][Lanes][]float64
	for l := 0; l < Lanes; l++ {
		for k := 0; k < 6; k++ {
			src[k][l] = make([]float64, n)
			work[k][l] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			src[0][l][i] = 0.25 * (rng.Float64() - 0.5)
			src[1][l][i] = rng.Float64() - 0.5
			src[2][l][i] = 4 + rng.Float64()
			src[3][l][i] = rng.Float64() - 0.5
			src[4][l][i] = 0.25 * (rng.Float64() - 0.5)
			src[5][l][i] = rng.Float64()
		}
	}
	reload := func() {
		for k := 0; k < 6; k++ {
			for l := 0; l < Lanes; l++ {
				copy(work[k][l], src[k][l])
			}
		}
	}
	b.Run("batch5", func(b *testing.B) {
		b.SetBytes(int64(Lanes * n * 8))
		for i := 0; i < b.N; i++ {
			reload()
			SolvePentadiag5(&work[0], &work[1], &work[2], &work[3], &work[4], &work[5], n)
		}
	})
	b.Run("scalar-loop", func(b *testing.B) {
		b.SetBytes(int64(Lanes * n * 8))
		for i := 0; i < b.N; i++ {
			reload()
			for l := 0; l < Lanes; l++ {
				SolvePentadiag(work[0][l], work[1][l], work[2][l], work[3][l], work[4][l], work[5][l])
			}
		}
	})
}
