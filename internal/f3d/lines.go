package f3d

import (
	"fmt"

	"repro/internal/euler"
	"repro/internal/grid"
	"repro/internal/linalg"
)

// Line gather/scatter between zone fields and pencil buffers. For the
// J axis the gather is unit-stride (in the PointMajor layout); for K
// and L it is the strided "batching up a 1-dimensional buffer" of the
// paper's Example 3 — a pattern whose contention behaviour on paged
// NUMA systems the cachesim package analyzes (Example 4c).

// lineAxis maps a sweep axis to the zone dimension it runs along.
func lineLen(z *grid.Zone, ax euler.Axis) int {
	switch ax {
	case euler.X:
		return z.JMax
	case euler.Y:
		return z.KMax
	case euler.Z:
		return z.LMax
	default:
		panic(fmt.Sprintf("f3d: bad axis %d", int(ax)))
	}
}

// lineIndex returns the (j, k, l) of point i along a line on axis ax
// with fixed cross indices (a, b): for X the line is (i, a, b), for Y
// it is (a, i, b), for Z it is (a, b, i).
func lineIndex(ax euler.Axis, i, a, b int) (j, k, l int) {
	switch ax {
	case euler.X:
		return i, a, b
	case euler.Y:
		return a, i, b
	case euler.Z:
		return a, b, i
	default:
		panic(fmt.Sprintf("f3d: bad axis %d", int(ax)))
	}
}

// lineSpan returns the flat point index of a line's point 0 and the
// index step between consecutive points of the line. Both come from
// Zone.Index, so the zone keeps sole ownership of the point order.
func lineSpan(z *grid.Zone, ax euler.Axis, a, b int) (base, stride int) {
	j0, k0, l0 := lineIndex(ax, 0, a, b)
	j1, k1, l1 := lineIndex(ax, 1, a, b)
	p0 := z.Index(j0, k0, l0)
	return p0, z.Index(j1, k1, l1) - p0
}

// pointMajor5 reports whether f stores whole Vec5 state vectors
// contiguously, the layout the strided line copies below rely on. The
// VectorSolver's ComponentMajor fields take the per-point path.
func pointMajor5(f *grid.StateField) bool {
	return f.Layout == grid.PointMajor && f.NC == euler.NC
}

// loadLine gathers the n points of a line into dst. For the PointMajor
// layout the base offset and stride are computed once per line and each
// point is one Vec5 copy; the slice expressions keep every access
// bounds-checked.
func loadLine(f *grid.StateField, ax euler.Axis, a, b int, dst []linalg.Vec5, n int) {
	if !pointMajor5(f) {
		for i := 0; i < n; i++ {
			j, k, l := lineIndex(ax, i, a, b)
			f.Point(j, k, l, dst[i][:])
		}
		return
	}
	off, stride := lineSpan(f.Zone, ax, a, b)
	off, stride = off*euler.NC, stride*euler.NC
	dst = dst[:n]
	for i := range dst {
		dst[i] = linalg.Vec5(f.Data[off : off+euler.NC])
		off += stride
	}
}

// storeLineInterior scatters src[1..n-2] back to the field, leaving the
// line's boundary points untouched.
func storeLineInterior(f *grid.StateField, ax euler.Axis, a, b int, src []linalg.Vec5, n int) {
	if !pointMajor5(f) {
		for i := 1; i <= n-2; i++ {
			j, k, l := lineIndex(ax, i, a, b)
			f.SetPoint(j, k, l, src[i][:])
		}
		return
	}
	off, stride := lineSpan(f.Zone, ax, a, b)
	off, stride = off*euler.NC, stride*euler.NC
	src = src[:n]
	for i := 1; i < len(src)-1; i++ {
		off += stride
		*(*linalg.Vec5)(f.Data[off : off+euler.NC]) = src[i]
	}
}

// loadPoints gathers a line of the zone's point records into dst,
// bounds-checked per point like loadLine. A zone that keeps none (the
// scalar reference's) reports false: its kernels read Q.
func loadPoints(zs *ZoneState, ax euler.Axis, a, b int, dst []euler.PointState, n int) bool {
	if zs.pts == nil {
		return false
	}
	off, stride := lineSpan(zs.Zone, ax, a, b)
	dst = dst[:n]
	for i := range dst {
		dst[i] = zs.pts[off]
		off += stride
	}
	return true
}

// fillPoints rebuilds from Q the point records of interior plane l. The
// RHS J/K pass calls it as it enters the plane, so the fill rides that
// region's L-slab partition: the owner of plane 1 also fills face plane
// 0 and the owner of LMax−2 fills LMax−1, no two workers write a plane,
// and the barrier that already orders the J/K pass ahead of the L pass
// orders every fill ahead of every cross-plane read.
func (zs *ZoneState) fillPoints(l int) {
	if zs.pts == nil {
		return
	}
	if l == 1 {
		zs.fillPlane(0)
	}
	zs.fillPlane(l)
	if l == zs.Zone.LMax-2 {
		zs.fillPlane(l + 1)
	}
}

// fillPlane decomposes, J row by J row, the points of plane l that some
// line reads: those with at most one index on a face. Zone edges and
// corners are read by no line and may hold anything, so they must not
// reach DecomposeInto's panics.
func (zs *ZoneState) fillPlane(l int) {
	z := zs.Zone
	lface := l == 0 || l == z.LMax-1
	for k := 0; k < z.KMax; k++ {
		j0, j1 := 0, z.JMax
		if kface := k == 0 || k == z.KMax-1; kface || lface {
			if kface && lface {
				continue
			}
			j0, j1 = 1, z.JMax-1
		}
		off := z.Index(j0, k, l)
		pts := zs.pts[off : off+j1-j0]
		q := zs.Q.Data[off*euler.NC:]
		for i := range pts {
			euler.DecomposeInto(&pts[i], (*linalg.Vec5)(q[i*euler.NC:(i+1)*euler.NC]))
		}
	}
}

// crossDims returns the two cross-line dimensions (outer, inner) for a
// sweep along ax: the loops that enumerate the lines. The inner
// dimension is chosen to be J whenever the sweep is not along J, so
// the innermost gather stride is as small as the layout allows; the
// outer dimension is what the parallel region divides.
//
//	sweep J → lines indexed by (k inner, l outer)
//	sweep K → lines indexed by (j inner, l outer)
//	sweep L → lines indexed by (j inner, k outer)
//
// On every axis lineIndex's cross arguments are (a, b) = (inner, outer).
func crossDims(z *grid.Zone, ax euler.Axis) (outer, inner int) {
	switch ax {
	case euler.X:
		return z.LMax, z.KMax
	case euler.Y:
		return z.LMax, z.JMax
	case euler.Z:
		return z.KMax, z.JMax
	default:
		panic(fmt.Sprintf("f3d: bad axis %d", int(ax)))
	}
}
