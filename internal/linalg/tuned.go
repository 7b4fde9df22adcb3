package linalg

// Lane-batched band solvers: the same Thomas/pentadiagonal eliminations
// as the scalar reference solvers, reshaped the way the paper's §4
// serial tuning reshaped the vector code — batched over independent
// systems so the divide/multiply recurrence of one system hides behind
// the arithmetic of its neighbors, with every slice length pinned up
// front so the compiler proves the inner loops in-bounds (no per-
// element bounds checks, no per-call allocation).
//
// Each solver executes, per system, exactly the floating-point
// operations of its scalar reference in exactly the same order, so its
// results are bitwise identical — "faster" never means "different".
// The conformance cells tridiag-batch5 and pentadiag-batch5 enforce
// that on every build, and the CI bounds-check-elimination lint
// (lint/bce.sh) pins this file's residual bounds-check list so a hot
// loop silently re-growing per-element checks fails the build.
//
// The served sweep does not call these solvers: its three convective
// fields share one band, so f3d's sweepLineModeTuned eliminates three
// coefficient lanes for five right-hand sides, fused with the band
// assembly. SolveTridiag5 / SolvePentadiag5 stay only because the
// end-to-end benchmark's linalg.*5_ns_row probes (benchmark/probes.go)
// call them, and benchmark/ changes only in a benchmark-only change;
// they go with those probes.

// Lanes is the batch width of the lane-batched solvers: the five
// characteristic fields of 3-D compressible flow, one independent
// system per conserved component.
const Lanes = BlockSize

// SolveTridiag5 solves five independent tridiagonal systems of order n
// — one per lane — with the lane loops interleaved: row i of every
// lane is eliminated before row i+1 of any lane, so the five serial
// recurrences overlap in the pipeline. Band and right-hand-side arrays
// may be longer than n; only [:n] is touched. d is solved in place; b
// is read-only but c is overwritten, exactly like SolveTridiag.
func SolveTridiag5(a, b, c, d *[Lanes][]float64, n int) {
	if n <= 0 {
		if n == 0 {
			return
		}
		panic("linalg: SolveTridiag5 needs n >= 0")
	}
	checkLanes("SolveTridiag5", n, a, b, c, d)
	a0, a1, a2, a3, a4 := a[0][:n], a[1][:n], a[2][:n], a[3][:n], a[4][:n]
	b0, b1, b2, b3, b4 := b[0][:n], b[1][:n], b[2][:n], b[3][:n], b[4][:n]
	c0, c1, c2, c3, c4 := c[0][:n], c[1][:n], c[2][:n], c[3][:n], c[4][:n]
	d0, d1, d2, d3, d4 := d[0][:n], d[1][:n], d[2][:n], d[3][:n], d[4][:n]

	// Forward elimination, row 0: normalize each lane.
	i0 := 1 / b0[0]
	i1 := 1 / b1[0]
	i2 := 1 / b2[0]
	i3 := 1 / b3[0]
	i4 := 1 / b4[0]
	c0[0] *= i0
	c1[0] *= i1
	c2[0] *= i2
	c3[0] *= i3
	c4[0] *= i4
	d0[0] *= i0
	d1[0] *= i1
	d2[0] *= i2
	d3[0] *= i3
	d4[0] *= i4
	for i := 1; i < n; i++ {
		im := i - 1
		i0 = 1 / (b0[i] - a0[i]*c0[im])
		i1 = 1 / (b1[i] - a1[i]*c1[im])
		i2 = 1 / (b2[i] - a2[i]*c2[im])
		i3 = 1 / (b3[i] - a3[i]*c3[im])
		i4 = 1 / (b4[i] - a4[i]*c4[im])
		c0[i] *= i0
		c1[i] *= i1
		c2[i] *= i2
		c3[i] *= i3
		c4[i] *= i4
		d0[i] = (d0[i] - a0[i]*d0[im]) * i0
		d1[i] = (d1[i] - a1[i]*d1[im]) * i1
		d2[i] = (d2[i] - a2[i]*d2[im]) * i2
		d3[i] = (d3[i] - a3[i]*d3[im]) * i3
		d4[i] = (d4[i] - a4[i]*d4[im]) * i4
	}
	// Back substitution, all lanes per row.
	for i := n - 2; i >= 0; i-- {
		ip := i + 1
		d0[i] -= c0[i] * d0[ip]
		d1[i] -= c1[i] * d1[ip]
		d2[i] -= c2[i] * d2[ip]
		d3[i] -= c3[i] * d3[ip]
		d4[i] -= c4[i] * d4[ip]
	}
}

// SolvePentadiag5 solves five independent pentadiagonal systems of
// order n, one per lane, with the lane loops interleaved row-wise like
// SolveTridiag5: the two-row elimination of one lane hides behind its
// neighbors' arithmetic. Each lane performs the eliminations of
// SolvePentadiag in the same order, so results are bitwise identical
// to five scalar calls. Arrays may be longer than n.
func SolvePentadiag5(e, a, b, c, f, d *[Lanes][]float64, n int) {
	if n <= 0 {
		if n == 0 {
			return
		}
		panic("linalg: SolvePentadiag5 needs n >= 0")
	}
	checkLanes("SolvePentadiag5", n, e, a, b, c, f, d)
	if n == 1 {
		for l := 0; l < Lanes; l++ {
			d[l][0] /= b[l][0]
		}
		return
	}
	e0, e1, e2, e3, e4 := e[0][:n], e[1][:n], e[2][:n], e[3][:n], e[4][:n]
	a0, a1, a2, a3, a4 := a[0][:n], a[1][:n], a[2][:n], a[3][:n], a[4][:n]
	b0, b1, b2, b3, b4 := b[0][:n], b[1][:n], b[2][:n], b[3][:n], b[4][:n]
	c0, c1, c2, c3, c4 := c[0][:n], c[1][:n], c[2][:n], c[3][:n], c[4][:n]
	f0, f1, f2, f3, f4 := f[0][:n], f[1][:n], f[2][:n], f[3][:n], f[4][:n]
	d0, d1, d2, d3, d4 := d[0][:n], d[1][:n], d[2][:n], d[3][:n], d[4][:n]

	// Row 0: normalize each lane.
	i0 := 1 / b0[0]
	i1 := 1 / b1[0]
	i2 := 1 / b2[0]
	i3 := 1 / b3[0]
	i4 := 1 / b4[0]
	c0[0] *= i0
	c1[0] *= i1
	c2[0] *= i2
	c3[0] *= i3
	c4[0] *= i4
	f0[0] *= i0
	f1[0] *= i1
	f2[0] *= i2
	f3[0] *= i3
	f4[0] *= i4
	d0[0] *= i0
	d1[0] *= i1
	d2[0] *= i2
	d3[0] *= i3
	d4[0] *= i4
	// Row 1: single-row elimination against row 0.
	m0 := a0[1]
	m1 := a1[1]
	m2 := a2[1]
	m3 := a3[1]
	m4 := a4[1]
	i0 = 1 / (b0[1] - m0*c0[0])
	i1 = 1 / (b1[1] - m1*c1[0])
	i2 = 1 / (b2[1] - m2*c2[0])
	i3 = 1 / (b3[1] - m3*c3[0])
	i4 = 1 / (b4[1] - m4*c4[0])
	c0[1] = (c0[1] - m0*f0[0]) * i0
	c1[1] = (c1[1] - m1*f1[0]) * i1
	c2[1] = (c2[1] - m2*f2[0]) * i2
	c3[1] = (c3[1] - m3*f3[0]) * i3
	c4[1] = (c4[1] - m4*f4[0]) * i4
	f0[1] *= i0
	f1[1] *= i1
	f2[1] *= i2
	f3[1] *= i3
	f4[1] *= i4
	d0[1] = (d0[1] - m0*d0[0]) * i0
	d1[1] = (d1[1] - m1*d1[0]) * i1
	d2[1] = (d2[1] - m2*d2[0]) * i2
	d3[1] = (d3[1] - m3*d3[0]) * i3
	d4[1] = (d4[1] - m4*d4[0]) * i4
	// Main forward loop: two-row elimination, all lanes per row.
	for i := 2; i < n; i++ {
		im1, im2 := i-1, i-2
		t0 := e0[i]
		t1 := e1[i]
		t2 := e2[i]
		t3 := e3[i]
		t4 := e4[i]
		m0 = a0[i] - t0*c0[im2]
		m1 = a1[i] - t1*c1[im2]
		m2 = a2[i] - t2*c2[im2]
		m3 = a3[i] - t3*c3[im2]
		m4 = a4[i] - t4*c4[im2]
		w0 := b0[i] - t0*f0[im2] - m0*c0[im1]
		w1 := b1[i] - t1*f1[im2] - m1*c1[im1]
		w2 := b2[i] - t2*f2[im2] - m2*c2[im1]
		w3 := b3[i] - t3*f3[im2] - m3*c3[im1]
		w4 := b4[i] - t4*f4[im2] - m4*c4[im1]
		u0 := d0[i] - t0*d0[im2] - m0*d0[im1]
		u1 := d1[i] - t1*d1[im2] - m1*d1[im1]
		u2 := d2[i] - t2*d2[im2] - m2*d2[im1]
		u3 := d3[i] - t3*d3[im2] - m3*d3[im1]
		u4 := d4[i] - t4*d4[im2] - m4*d4[im1]
		i0 = 1 / w0
		i1 = 1 / w1
		i2 = 1 / w2
		i3 = 1 / w3
		i4 = 1 / w4
		c0[i] = (c0[i] - m0*f0[im1]) * i0
		c1[i] = (c1[i] - m1*f1[im1]) * i1
		c2[i] = (c2[i] - m2*f2[im1]) * i2
		c3[i] = (c3[i] - m3*f3[im1]) * i3
		c4[i] = (c4[i] - m4*f4[im1]) * i4
		f0[i] *= i0
		f1[i] *= i1
		f2[i] *= i2
		f3[i] *= i3
		f4[i] *= i4
		d0[i] = u0 * i0
		d1[i] = u1 * i1
		d2[i] = u2 * i2
		d3[i] = u3 * i3
		d4[i] = u4 * i4
	}
	// Back substitution.
	nm2 := n - 2
	d0[nm2] -= c0[nm2] * d0[nm2+1]
	d1[nm2] -= c1[nm2] * d1[nm2+1]
	d2[nm2] -= c2[nm2] * d2[nm2+1]
	d3[nm2] -= c3[nm2] * d3[nm2+1]
	d4[nm2] -= c4[nm2] * d4[nm2+1]
	for i := n - 3; i >= 0; i-- {
		ip1, ip2 := i+1, i+2
		d0[i] -= c0[i]*d0[ip1] + f0[i]*d0[ip2]
		d1[i] -= c1[i]*d1[ip1] + f1[i]*d1[ip2]
		d2[i] -= c2[i]*d2[ip1] + f2[i]*d2[ip2]
		d3[i] -= c3[i]*d3[ip1] + f3[i]*d3[ip2]
		d4[i] -= c4[i]*d4[ip1] + f4[i]*d4[ip2]
	}
}

// checkLanes validates every lane of every band up front, before any
// element is touched, so a panicking call leaves its arguments
// bit-identical to the caller's originals.
func checkLanes(kernel string, n int, bands ...*[Lanes][]float64) {
	for _, band := range bands {
		for l := 0; l < Lanes; l++ {
			if len(band[l]) < n {
				panic("linalg: " + kernel + " lane shorter than n")
			}
		}
	}
}
