package check

import (
	"math"

	"repro/internal/euler"
	"repro/internal/parloop"
)

// Registry returns the shipped conformance kernels: the paper's
// Example 1–3 loop structures, the reduction family, and the euler and
// f3d numerical kernels. Every kernel here must pass the full matrix;
// SeededDependence (deliberately racy) is not part of the registry.
func Registry() []Kernel {
	ks := []Kernel{
		saxpyKernel(),
		stencilKernel(),
		mergedPhasesKernel(),
		sumIntKernel(),
		sumFPKernel(),
		dotKernel(),
		maxKernel(),
		eulerPointKernel(),
	}
	ks = append(ks, tunedKernels()...)
	ks = append(ks, f3dKernels()...)
	ks = append(ks, clusterKernels()...)
	return ks
}

// inputF64 fills deterministic, strictly reproducible test data: a
// smooth signal with enough variation that partition bugs move the
// answer.
func inputF64(n int, seed float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(seed+3.7*float64(i)) + 0.5*math.Cos(seed*float64(i+1))
	}
	return x
}

// inputInt fills integer-valued float64 data. Sums of these are exact
// in float64 (well under 2^53), so any regrouping of the addition —
// any team size — must produce identical bits.
func inputInt(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = float64((uint32(i) * 2654435761) % 1024)
	}
	return x
}

// saxpyKernel is the paper's Example 1 shape: a single vectorizable
// loop parallelized directly. Elementwise, so every team size must be
// bitwise identical to serial.
func saxpyKernel() Kernel {
	const a = 1.25
	body := func(x, y, out []float64, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = a*x[i] + y[i]
		}
	}
	return Kernel{
		Name: "saxpy", N: 4096, MinN: 1,
		Serial: func(n int) []float64 {
			x, y := inputF64(n, 1.0), inputF64(n, 2.0)
			out := make([]float64, n)
			body(x, y, out, 0, n)
			return out
		},
		Parallel: func(t *parloop.Team, spec Spec) []float64 {
			x, y := inputF64(spec.N, 1.0), inputF64(spec.N, 2.0)
			out := make([]float64, spec.N)
			t.ForChunked(spec.N, func(lo, hi int) {
				body(x, y, out, lo, hi)
			})
			return out
		},
		Tracked: func(tk *Tracker, t *parloop.Team, n int) []float64 {
			x := tk.Track("saxpy.x", inputF64(n, 1.0))
			y := tk.Track("saxpy.y", inputF64(n, 2.0))
			out := tk.Float64s("saxpy.out", n)
			t.Region(func(ctx *parloop.WorkerCtx) {
				w := ctx.ID()
				lo, hi := ctx.Range(n)
				for i := lo; i < hi; i++ {
					out.Store(w, i, a*x.Load(w, i)+y.Load(w, i))
				}
			})
			return out.Data()
		},
	}
}

// stencilKernel is a multi-step ping-pong Jacobi smoother: each step
// one parallel region reading the previous buffer and writing the
// next. Elementwise per step, so exact at every team size; the step
// structure gives the driver resize boundaries, and the tracked
// variant proves the cross-step reads are barrier-ordered (a new
// region per step).
func stencilKernel() Kernel {
	const steps = 6
	stepBody := func(cur, next []float64, n, lo, hi int) {
		for i := lo; i < hi; i++ {
			l, r := i-1, i+1
			if l < 0 {
				l = 0
			}
			if r > n-1 {
				r = n - 1
			}
			next[i] = 0.25*cur[l] + 0.5*cur[i] + 0.25*cur[r]
		}
	}
	return Kernel{
		Name: "stencil3", N: 2048, MinN: 1, Steps: steps,
		Serial: func(n int) []float64 {
			cur, next := inputF64(n, 3.0), make([]float64, n)
			for s := 0; s < steps; s++ {
				stepBody(cur, next, n, 0, n)
				cur, next = next, cur
			}
			return cur
		},
		Parallel: func(t *parloop.Team, spec Spec) []float64 {
			n := spec.N
			cur, next := inputF64(n, 3.0), make([]float64, n)
			for s := 0; s < steps; s++ {
				spec.Step(s)
				t.ForChunked(n, func(lo, hi int) {
					stepBody(cur, next, n, lo, hi)
				})
				cur, next = next, cur
			}
			return cur
		},
		Tracked: func(tk *Tracker, t *parloop.Team, n int) []float64 {
			cur := tk.Track("stencil3.a", inputF64(n, 3.0))
			next := tk.Track("stencil3.b", make([]float64, n))
			for s := 0; s < steps; s++ {
				t.Region(func(ctx *parloop.WorkerCtx) {
					w := ctx.ID()
					lo, hi := ctx.Range(n)
					for i := lo; i < hi; i++ {
						l, r := i-1, i+1
						if l < 0 {
							l = 0
						}
						if r > n-1 {
							r = n - 1
						}
						next.Store(w, i, 0.25*cur.Load(w, l)+0.5*cur.Load(w, i)+0.25*cur.Load(w, r))
					}
				})
				cur, next = next, cur
			}
			return cur.Data()
		},
	}
}

// mergedPhasesKernel is the paper's Example 2/3 shape: several loop
// phases merged under a single fork-join, with a barrier separating
// the dependent phases. The second phase reads across worker
// boundaries — legal exactly because of the barrier, which the tracked
// variant proves.
func mergedPhasesKernel() Kernel {
	const steps = 4
	phaseA := func(a, b []float64, lo, hi int) {
		for i := lo; i < hi; i++ {
			b[i] = math.Sqrt(math.Abs(a[i])) + 0.1
		}
	}
	phaseB := func(a, b []float64, n, lo, hi int) {
		for i := lo; i < hi; i++ {
			l, r := i-1, i+1
			if l < 0 {
				l = 0
			}
			if r > n-1 {
				r = n - 1
			}
			a[i] = b[l] + b[i] + b[r]
		}
	}
	return Kernel{
		Name: "merged-phases", N: 1536, MinN: 1, Steps: steps,
		Serial: func(n int) []float64 {
			a, b := inputF64(n, 4.0), make([]float64, n)
			for s := 0; s < steps; s++ {
				phaseA(a, b, 0, n)
				phaseB(a, b, n, 0, n)
			}
			return a
		},
		Parallel: func(t *parloop.Team, spec Spec) []float64 {
			n := spec.N
			a, b := inputF64(n, 4.0), make([]float64, n)
			for s := 0; s < steps; s++ {
				spec.Step(s)
				t.Region(func(ctx *parloop.WorkerCtx) {
					lo, hi := ctx.Range(n)
					phaseA(a, b, lo, hi)
					ctx.Barrier()
					phaseB(a, b, n, lo, hi)
				})
			}
			return a
		},
		Tracked: func(tk *Tracker, t *parloop.Team, n int) []float64 {
			a := tk.Track("merged.a", inputF64(n, 4.0))
			b := tk.Track("merged.b", make([]float64, n))
			for s := 0; s < steps; s++ {
				t.Region(func(ctx *parloop.WorkerCtx) {
					w := ctx.ID()
					lo, hi := ctx.Range(n)
					for i := lo; i < hi; i++ {
						b.Store(w, i, math.Sqrt(math.Abs(a.Load(w, i)))+0.1)
					}
					ctx.Barrier()
					for i := lo; i < hi; i++ {
						l, r := i-1, i+1
						if l < 0 {
							l = 0
						}
						if r > n-1 {
							r = n - 1
						}
						a.Store(w, i, b.Load(w, l)+b.Load(w, i)+b.Load(w, r))
					}
				})
			}
			return a.Data()
		},
	}
}

// reduceWith runs a Static reduction: per-worker partials folded over
// each worker's range, merged in ascending worker order. The partition
// varies with the team size, so the merge tree varies — which is
// exactly what the integer kernel proves harmless and the FP kernel
// bounds in ULPs.
func reduceWith(t *parloop.Team, x []float64, identity float64, fold func(acc, v float64) float64) float64 {
	partials := make([]float64, t.Workers())
	t.Region(func(ctx *parloop.WorkerCtx) {
		lo, hi := ctx.Range(len(x))
		acc := identity
		for i := lo; i < hi; i++ {
			acc = fold(acc, x[i])
		}
		partials[ctx.ID()] = acc
	})
	acc := identity
	for _, p := range partials {
		acc = fold(acc, p)
	}
	return acc
}

// sumIntKernel: ordered reduction over integer-valued data. Integer
// sums are exact in float64, so the result must be bit-identical to
// the serial fold for every team size — the
// "exact for ordered Reduce" cell of the matrix.
func sumIntKernel() Kernel {
	return Kernel{
		Name: "sum-int-exact", N: 4096, MinN: 1,
		Serial: func(n int) []float64 {
			acc := 0.0
			for _, v := range inputInt(n) {
				acc += v
			}
			return []float64{acc}
		},
		Parallel: func(t *parloop.Team, spec Spec) []float64 {
			x := inputInt(spec.N)
			return []float64{reduceWith(t, x, 0, func(a, v float64) float64 { return a + v })}
		},
	}
}

// sumFPKernel: the same reduction over real-valued data. Each team
// size regroups the additions, so the serial comparison is
// ULP-bounded rather than exact; the bound still catches lost or
// double-counted chunks outright (those move the sum by far more).
func sumFPKernel() Kernel {
	return Kernel{
		Name: "sum-fp-ulp", N: 4096, MinN: 1,
		MaxULPs: 1 << 16,
		Serial: func(n int) []float64 {
			acc := 0.0
			for _, v := range inputF64(n, 5.0) {
				acc += v
			}
			return []float64{acc}
		},
		Parallel: func(t *parloop.Team, spec Spec) []float64 {
			x := inputF64(spec.N, 5.0)
			return []float64{reduceWith(t, x, 0, func(a, v float64) float64 { return a + v })}
		},
	}
}

// dotKernel: a two-array FP reduction (the residual-norm shape of the
// solvers, summed by parloop.SumFloat64), ULP-bounded like sumFP.
func dotKernel() Kernel {
	gen := func(n int) (x, y []float64) {
		x = inputF64(n, 6.0)
		y = make([]float64, n)
		for i := range y {
			y[i] = 1.5 + 0.5*math.Sin(float64(i)) // positive: bounds the conditioning
		}
		return x, y
	}
	return Kernel{
		Name: "dot-ulp", N: 4096, MinN: 1,
		MaxULPs: 1 << 16,
		Serial: func(n int) []float64 {
			x, y := gen(n)
			acc := 0.0
			for i := range x {
				acc += x[i] * y[i]
			}
			return []float64{acc}
		},
		Parallel: func(t *parloop.Team, spec Spec) []float64 {
			x, y := gen(spec.N)
			return []float64{parloop.SumFloat64(t, spec.N, func(i int) float64 { return x[i] * y[i] })}
		},
	}
}

// maxKernel: a max reduction. Max is insensitive to grouping (the
// result is one of the inputs), so every team size must be bitwise
// identical to serial — no ULP allowance.
func maxKernel() Kernel {
	return Kernel{
		Name: "max-exact", N: 4096, MinN: 1,
		Serial: func(n int) []float64 {
			acc := math.Inf(-1)
			for _, v := range inputF64(n, 7.0) {
				if v > acc {
					acc = v
				}
			}
			return []float64{acc}
		},
		Parallel: func(t *parloop.Team, spec Spec) []float64 {
			x := inputF64(spec.N, 7.0)
			return []float64{reduceWith(t, x, math.Inf(-1), math.Max)}
		},
	}
}

// eulerPointKernel sweeps the euler package's per-point kernels —
// directional eigensystem, flux and spectral radius — over a batch of
// varied physical states, writing a per-point checksum. Pure per-point
// arithmetic: exact at every team size.
func eulerPointKernel() Kernel {
	kx, ky, kz := 1/math.Sqrt(3), 1/math.Sqrt(3), 1/math.Sqrt(3)
	point := func(i, n int) float64 {
		t := float64(i) / float64(n)
		u := euler.Prim{
			Rho: 1 + 0.3*math.Sin(7*t),
			U:   0.4 + 0.2*math.Cos(3*t),
			V:   0.1 * math.Sin(5*t),
			W:   0.05 * math.Cos(11*t),
			P:   1 + 0.25*math.Sin(2*t),
		}.Cons()
		e := euler.EigensystemDir(kx, ky, kz, u)
		f := euler.FluxDir(kx, ky, kz, u)
		v := euler.SpectralRadiusDir(kx, ky, kz, u)
		for c := 0; c < euler.NC; c++ {
			v += e.Lambda[c] + f[c]
		}
		return v
	}
	return Kernel{
		Name: "euler-point", N: 1024, MinN: 1,
		Serial: func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = point(i, n)
			}
			return out
		},
		Parallel: func(t *parloop.Team, spec Spec) []float64 {
			out := make([]float64, spec.N)
			t.ForChunked(spec.N, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					out[i] = point(i, spec.N)
				}
			})
			return out
		},
	}
}

// SeededDependence is the deliberately broken kernel: a prefix
// recurrence a[i] = a[i-1] + 1 parallelized as if it were independent
// — the classic C$doacross misuse. Its serial output is a[i] = i+1.
//
// The untracked Parallel body commits the bug in its deterministic,
// race-free form (each worker restarts the recurrence from a stale
// snapshot at its chunk boundary), so the conformance harness catches
// a reproducibly wrong answer without tripping Go's runtime race
// detector. The Tracked variant commits the true cross-worker
// recurrence through lock-synchronized shadow memory; the dependence
// checker must flag it on every execution, whatever the interleaving —
// the case `go test -race` misses when the workers happen not to
// interleave. It is not part of Registry.
func SeededDependence() Kernel {
	return Kernel{
		Name: "seeded-loop-carried", N: 1024, MinN: 2,
		Serial: func(n int) []float64 {
			a := make([]float64, n)
			for i := 0; i < n; i++ {
				v := 1.0
				if i > 0 {
					v += a[i-1]
				}
				a[i] = v
			}
			return a
		},
		Parallel: func(t *parloop.Team, spec Spec) []float64 {
			prev := make([]float64, spec.N) // stale snapshot: all zeros
			a := make([]float64, spec.N)
			t.ForChunked(spec.N, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					v := 1.0
					if i == lo && i > 0 {
						v += prev[i-1] // the dependence crosses the chunk boundary
					} else if i > lo {
						v += a[i-1]
					}
					a[i] = v
				}
			})
			return a
		},
		Tracked: func(tk *Tracker, t *parloop.Team, n int) []float64 {
			a := tk.Float64s("seeded.a", n)
			t.Region(func(ctx *parloop.WorkerCtx) {
				w := ctx.ID()
				lo, hi := ctx.Range(n)
				for i := lo; i < hi; i++ {
					v := 1.0
					if i > 0 {
						v += a.Load(w, i-1)
					}
					a.Store(w, i, v)
				}
			})
			return a.Data()
		},
	}
}
