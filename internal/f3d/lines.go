package f3d

import (
	"fmt"
	"math"

	"repro/internal/euler"
	"repro/internal/grid"
	"repro/internal/linalg"
)

// Lines of the zone fields, as the kernels take them. A J line of a
// point-major field is a contiguous run of its Vec, so the J passes of
// rhsPassJK and sweepJK hand the kernels Q, R and the point records in
// place (lineJ) and the L update adds into Q where it lives
// (addLineInterior). K and L lines are strided: they are gathered into
// the worker's pencil (loadLine, loadPoints) and the interior scattered
// back (storeLineInterior) — the "batching up a 1-dimensional buffer" of
// the paper's Example 3, a pattern whose contention behaviour on paged
// NUMA systems the cachesim package analyzes (Example 4c). The pencil
// also keeps the sweeps' band and eigen scratch, and BlockSolver and the
// component-major VectorSolver gather every line into it.

// lineLen returns the number of points on a line along ax: the zone
// dimension it runs along.
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

// lineJ returns J line (k, l) of Q, of its point records and of R, in
// place. s is nil on a zone that keeps no point records (the scalar
// reference's), whose kernels read Q instead. The kernels write only the
// interior of r but for the sweeps' +0 at its two ends, which are face
// points of R and hold +0 already (TestResidualFacesStayZero).
func (zs *ZoneState) lineJ(k, l int) (q []linalg.Vec5, s []euler.PointState, r []linalg.Vec5) {
	off, n := zs.Zone.Index(0, k, l), zs.Zone.JMax
	if zs.pts != nil {
		s = zs.pts[off : off+n]
	}
	return zs.Q.Vec[off : off+n], s, zs.R.Vec[off : off+n]
}

// loadLine gathers the n points of a line into dst. For a point-major
// field the base offset and stride are computed once per line and each
// point is one Vec5 copy; every access stays bounds-checked, so a wrong
// base or stride panics instead of reading a neighbouring line. The
// VectorSolver's component-major fields take the per-point path.
func loadLine(f *grid.StateField, ax euler.Axis, a, b int, dst []linalg.Vec5, n int) {
	if f.Layout != grid.PointMajor {
		for i := 0; i < n; i++ {
			j, k, l := lineIndex(ax, i, a, b)
			f.Point(j, k, l, dst[i][:])
		}
		return
	}
	off, stride := lineSpan(f.Zone, ax, a, b)
	v := f.Vec
	dst = dst[:n]
	for i := range dst {
		dst[i] = v[off]
		off += stride
	}
}

// storeLineInterior scatters src[1..n-2] back to the field, leaving the
// line's boundary points untouched.
func storeLineInterior(f *grid.StateField, ax euler.Axis, a, b int, src []linalg.Vec5, n int) {
	if f.Layout != grid.PointMajor {
		for i := 1; i <= n-2; i++ {
			j, k, l := lineIndex(ax, i, a, b)
			f.SetPoint(j, k, l, src[i][:])
		}
		return
	}
	off, stride := lineSpan(f.Zone, ax, a, b)
	v := f.Vec
	src = src[:n]
	for i := 1; i < len(src)-1; i++ {
		off += stride
		v[off] = src[i]
	}
}

// addLineInterior adds the solved update r[1..n-2] into the interior
// points of a line of the point-major field f, where they live, and
// returns m raised to the largest |Δ| added — point by point, component
// by component, the order the step's MaxDelta has always been taken in.
func addLineInterior(f *grid.StateField, ax euler.Axis, a, b int, r []linalg.Vec5, n int, m float64) float64 {
	off, stride := lineSpan(f.Zone, ax, a, b)
	v := f.Vec
	r = r[:n]
	for i := 1; i < len(r)-1; i++ {
		off += stride
		q, d := &v[off], &r[i]
		for c := range d {
			q[c] += d[c]
			if a := math.Abs(d[c]); a > m {
				m = a
			}
		}
	}
	return m
}

// loadPoints gathers a K or L line of the zone's point records into dst,
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
		q := zs.Q.Vec[off : off+j1-j0]
		for i := range pts {
			euler.DecomposeInto(&pts[i], &q[i])
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
