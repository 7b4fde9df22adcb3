package check

import (
	"math"

	"repro/internal/euler"
	"repro/internal/linalg"
	"repro/internal/parloop"
)

// tunedKernels registers the tuned inner-loop kernels against their
// scalar references, all bitwise: the axis-specialised eigensystem
// against the generic one, and the lane-batched band solvers — per
// system they perform the scalar eliminations in the scalar order. The
// parallel bodies partition independent items across the team, so the
// matrix also proves the tuned forms safe inside regions.
func tunedKernels() []Kernel {
	return []Kernel{
		eigenAxisKernel(),
		tridiagBatchKernel(),
		pentadiagBatchKernel(),
	}
}

// perItemKernel is the shape the next three kernels share: n
// independent items of per outputs each, item i computed by the scalar
// reference form in the serial run and by the tuned form, dealt to the
// team Static, in the parallel one. Bitwise.
func perItemKernel(name string, n, per int, item func(i int, tuned bool, out []float64)) Kernel {
	return Kernel{
		Name: name, N: n, MinN: 1,
		Serial: func(n int) []float64 {
			out := make([]float64, n*per)
			for i := 0; i < n; i++ {
				item(i, false, out[i*per:])
			}
			return out
		},
		Parallel: func(t *parloop.Team, spec Spec) []float64 {
			out := make([]float64, spec.N*per)
			t.ForChunked(spec.N, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					item(i, true, out[i*per:])
				}
			})
			return out
		},
	}
}

// eigenAxisKernel: the tuned sweep's axis-specialised characteristic
// transforms (euler.AxisEigen) against the dense EigensystemDir +
// MulVec5 they replace: per state and axis Λ, T⁻¹·r and T·r. States mix
// ordinary flow with velocity and right-hand-side components that are
// exactly +0 or −0, where a dropped 0·x term would show.
func eigenAxisKernel() Kernel {
	const nc = euler.NC
	z := [3]float64{1, 0, math.Copysign(0, -1)}
	return perItemKernel("eigen-axis-tuned", 243, 3*3*nc, func(i int, tuned bool, out []float64) {
		t := float64(i)
		uc := euler.Prim{
			Rho: 1 + 0.3*math.Sin(7*t), P: 1 + 0.25*math.Sin(2*t),
			U: (0.4 + 0.2*math.Cos(3*t)) * z[i%3], V: 0.3 * math.Sin(5*t) * z[i/3%3], W: -0.2 * math.Cos(11*t) * z[i/9%3],
		}.Cons()
		var r linalg.Vec5
		for c := range r {
			r[c] = math.Sin(t+1.7*float64(c)) * z[(i+c)%3]
		}
		for a, ax := range []euler.Axis{euler.X, euler.Y, euler.Z} {
			kx, ky, kz := ax.Unit()
			gen := euler.EigensystemDir(kx, ky, kz, uc)
			lam, fwd, back := gen.Lambda, linalg.MulVec5(&gen.Tinv, &r), linalg.MulVec5(&gen.T, &r)
			if tuned {
				var e euler.AxisEigen
				var s euler.PointState
				euler.DecomposeInto(&s, &uc)
				e.Forward(ax, &s, &r, &fwd)
				e.Back(ax, &s, &r, &back)
				lam = e.Lambda
			}
			o := out[a*3*nc:]
			copy(o, lam[:])
			copy(o[nc:], fwd[:])
			copy(o[2*nc:], back[:])
		}
	})
}

// batchOrder is the system order used by the batched-solver kernels.
const batchOrder = 40

// laneSeed spreads deterministic band data across batches and lanes.
func laneSeed(batch, lane int) float64 {
	return float64(batch*linalg.Lanes+lane) * 1.618
}

// tridiagBands builds one diagonally dominant 5-lane tridiagonal batch.
func tridiagBands(batch, m int) (a, b, c, d [linalg.Lanes][]float64) {
	for l := 0; l < linalg.Lanes; l++ {
		s := laneSeed(batch, l)
		a[l] = make([]float64, m)
		b[l] = make([]float64, m)
		c[l] = make([]float64, m)
		d[l] = make([]float64, m)
		for i := 0; i < m; i++ {
			t := float64(i)
			a[l][i] = 0.8 * math.Sin(s+1.3*t)
			c[l][i] = 0.8 * math.Cos(s+0.7*t)
			b[l][i] = 3 + 0.5*math.Sin(s*0.9+t)
			d[l][i] = 2 * math.Sin(s+2.1*t)
		}
	}
	return
}

// tridiagBatchKernel: N independent 5-lane tridiagonal batches. The
// serial reference solves every lane with the scalar Thomas solver;
// the parallel body deals batches to workers and solves each with the
// lane-batched SolveTridiag5. Interleaving lanes reorders nothing
// within a lane, so every team size must reproduce the serial bits.
func tridiagBatchKernel() Kernel {
	solve := func(batch int, batched bool, out []float64) {
		a, b, c, d := tridiagBands(batch, batchOrder)
		if batched {
			linalg.SolveTridiag5(&a, &b, &c, &d, batchOrder)
		} else {
			for l := 0; l < linalg.Lanes; l++ {
				linalg.SolveTridiag(a[l], b[l], c[l], d[l])
			}
		}
		for l := 0; l < linalg.Lanes; l++ {
			copy(out[l*batchOrder:], d[l])
		}
	}
	return perItemKernel("tridiag-batch5", 48, linalg.Lanes*batchOrder, solve)
}

// pentadiagBands builds one diagonally dominant 5-lane pentadiagonal
// batch.
func pentadiagBands(batch, m int) (e, a, b, c, f, d [linalg.Lanes][]float64) {
	for l := 0; l < linalg.Lanes; l++ {
		s := laneSeed(batch, l) + 0.5
		e[l] = make([]float64, m)
		a[l] = make([]float64, m)
		b[l] = make([]float64, m)
		c[l] = make([]float64, m)
		f[l] = make([]float64, m)
		d[l] = make([]float64, m)
		for i := 0; i < m; i++ {
			t := float64(i)
			e[l][i] = 0.3 * math.Sin(s+1.9*t)
			a[l][i] = 0.7 * math.Cos(s+1.1*t)
			c[l][i] = 0.7 * math.Sin(s+0.6*t)
			f[l][i] = 0.3 * math.Cos(s+2.3*t)
			b[l][i] = 3.5 + 0.5*math.Cos(s*1.7+t)
			d[l][i] = 2 * math.Sin(s+3.1*t)
		}
	}
	return
}

// pentadiagBatchKernel: the pentadiagonal companion of tridiag-batch5,
// covering the implicit fourth-difference dissipation path. Bitwise.
func pentadiagBatchKernel() Kernel {
	solve := func(batch int, batched bool, out []float64) {
		e, a, b, c, f, d := pentadiagBands(batch, batchOrder)
		if batched {
			linalg.SolvePentadiag5(&e, &a, &b, &c, &f, &d, batchOrder)
		} else {
			for l := 0; l < linalg.Lanes; l++ {
				linalg.SolvePentadiag(e[l], a[l], b[l], c[l], f[l], d[l])
			}
		}
		for l := 0; l < linalg.Lanes; l++ {
			copy(out[l*batchOrder:], d[l])
		}
	}
	return perItemKernel("pentadiag-batch5", 32, linalg.Lanes*batchOrder, solve)
}
