package f3d

import (
	"fmt"

	"repro/internal/euler"
	"repro/internal/grid"
)

// Zonal interface coupling. F3D is a block-structured zonal code: the
// paper's test cases are three zones stacked along J with matching K×L
// faces. Zones are coupled explicitly with a two-point overlap — each
// zone's J-face boundary points receive the neighbouring zone's
// adjacent interior values, captured at the start of the time step so
// the exchange is symmetric and independent of zone ordering
// (time-lagged patched-grid coupling, as in the ZNSFLOW solver the
// paper's project produced).

// Interface couples zones[Left]'s J-max face to zones[Right]'s J-min
// face. The grids must overlap by two points:
//
//	Left physical j ∈ [0, split+1],  Right physical j ∈ [split, N-1]
//	Left boundary (JMax-1) ← Right interior j=1
//	Right boundary (0)     ← Left interior j=JMax-2
//
// Both zones must have equal KMax, LMax and equal spacings. One side may
// be Remote: that zone lives in another solver (a cluster shard's
// neighbour), and its plane arrives through Receive instead of being
// captured here.
type Interface struct {
	Left, Right int
}

// Remote marks the side of an Interface held by another solver.
const Remote = -1

// checkInterfaces validates interface definitions against a case: every
// local side names an unstretched zone, the two sides of a local pair
// match, and no face is coupled twice.
func checkInterfaces(c grid.Case, ifaces []Interface) error {
	coupled := map[[2]int]bool{} // (zone, face)
	for _, f := range ifaces {
		for i, zi := range [2]int{f.Left, f.Right} {
			switch face := [2]int{zi, int(FaceJMax) - i}; {
			case zi == Remote:
			case zi < 0 || zi >= len(c.Zones):
				return fmt.Errorf("f3d: interface %v references missing zone (case has %d zones)", f, len(c.Zones))
			case c.Zones[zi].Stretched():
				return fmt.Errorf("f3d: interface %v couples stretched zones (unsupported)", f)
			case coupled[face]:
				return fmt.Errorf("f3d: interface %v couples a face of zone %d twice", f, zi)
			default:
				coupled[face] = true
			}
		}
		switch {
		case f.Left == Remote && f.Right == Remote:
			return fmt.Errorf("f3d: interface %v has no local side", f)
		case f.Left == f.Right:
			return fmt.Errorf("f3d: interface %v couples a zone to itself", f)
		case f.Left != Remote && f.Right != Remote:
			a, b := &c.Zones[f.Left], &c.Zones[f.Right]
			if a.KMax != b.KMax || a.LMax != b.LMax {
				return fmt.Errorf("f3d: interface %v face mismatch: %v vs %v", f, a, b)
			}
			if a.DK != b.DK || a.DL != b.DL || a.DJ != b.DJ {
				return fmt.Errorf("f3d: interface %v spacing mismatch", f)
			}
		}
	}
	return nil
}

// link is one coupled J face: the face it overwrites and the plane it
// overwrites it with. A local link's plane is copied from the donor
// zone's adjacent interior plane at the start of every step; a remote
// link's (donor == Remote) arrives through Receive, one per step.
type link struct {
	zone  int  // receiving zone
	face  Face // FaceJMin (j=0) or FaceJMax (j=JMax-1)
	donor int  // donor zone, or Remote
	plane []float64
	fresh bool // remote: a plane arrived for the coming step
}

// newLinks builds the link table of the interfaces, two links per local
// pair, in interface order.
func newLinks(c grid.Case, ifaces []Interface) []link {
	var ls []link
	for _, f := range ifaces {
		z := &c.Zones[max(f.Left, f.Right)] // a local side: Remote is −1
		for _, l := range [2]link{{zone: f.Right, face: FaceJMin, donor: f.Left}, {zone: f.Left, face: FaceJMax, donor: f.Right}} {
			if l.zone != Remote {
				l.plane = make([]float64, z.KMax*z.LMax*euler.NC)
				ls = append(ls, l)
			}
		}
	}
	return ls
}

// planeJ is the J index of the plane depth points in from face f of z:
// the face itself (0), or the interior plane the zone donates across it
// (1, the two-point overlap).
func planeJ(z *grid.Zone, f Face, depth int) int {
	if f == FaceJMax {
		return z.JMax - 1 - depth
	}
	return depth
}

// copyPlane copies the K×L plane j of zs to buf (toField false) or buf
// onto it (toField true), in BoundaryPlane.Data order: l-major, then k,
// then component. It is the one plane loop of the exchange.
func copyPlane(zs *ZoneState, j int, buf []float64, toField bool) {
	z := zs.Zone
	pos := 0
	for l := 0; l < z.LMax; l++ {
		for k := 0; k < z.KMax; k++ {
			if toField {
				zs.Q.SetPoint(j, k, l, buf[pos:pos+euler.NC])
			} else {
				zs.Q.Point(j, k, l, buf[pos:pos+euler.NC])
			}
			pos += euler.NC
		}
	}
}

// captureLinks opens a step's exchange: every local link copies its
// donor's plane from the current (time-level n) solution, before any
// zone advances, so the exchange is symmetric and independent of zone
// order; every remote link consumes the plane Receive staged for it.
func captureLinks(ls []link, zones []*ZoneState) {
	for i := range ls {
		l := &ls[i]
		if l.donor != Remote {
			// The donor couples its opposite face: J-max feeds a J-min link.
			copyPlane(zones[l.donor], planeJ(zones[l.donor].Zone, 1-l.face, 1), l.plane, false)
		} else if !l.fresh {
			panic(fmt.Sprintf("f3d: step with no boundary plane received for zone %d face %v", l.zone, l.face))
		}
		l.fresh = false
	}
}

// applyLinks writes the planes of zone zi's links onto its coupled faces.
// It runs after the zone's boundary conditions, which it overrides there;
// local and remote faces are written at this one point, which is why a
// sharded solve reproduces the single-solver step bitwise.
func applyLinks(ls []link, zi int, zs *ZoneState) {
	for _, l := range ls {
		if l.zone == zi {
			copyPlane(zs, planeJ(zs.Zone, l.face, 0), l.plane, true)
		}
	}
}

// SplitAlongJ splits a single zone of physical extent n×kmax×lmax into
// two zones with a two-point overlap at index split (1 < split < n−2),
// suitable for zonal-coupling tests and examples: the left zone covers
// physical j ∈ [0, split+1], the right zone j ∈ [split, n−1]. Both
// inherit the parent's spacings, so the composite grid is point-matched
// with the unsplit one.
func SplitAlongJ(name string, n, kmax, lmax, split int) (grid.Case, []Interface) {
	if split < 2 || split > n-4 {
		panic(fmt.Sprintf("f3d: SplitAlongJ split %d out of range [2, %d]", split, n-4))
	}
	parent := grid.NewZone(name, n, kmax, lmax)
	left := grid.Zone{
		Name: name + "-left",
		JMax: split + 2, KMax: kmax, LMax: lmax,
		DJ: parent.DJ, DK: parent.DK, DL: parent.DL,
	}
	right := grid.Zone{
		Name: name + "-right",
		JMax: n - split, KMax: kmax, LMax: lmax,
		DJ: parent.DJ, DK: parent.DK, DL: parent.DL,
	}
	c := grid.Case{Name: name + "-split", Zones: []grid.Zone{left, right}}
	return c, []Interface{{Left: 0, Right: 1}}
}

// StackAlongJ generalizes SplitAlongJ to any number of cuts: a single
// zone of physical extent n×kmax×lmax becomes len(cuts)+1 zones stacked
// along J, each consecutive pair overlapping by two points at its cut.
// Zone i covers physical j ∈ [cuts[i-1], cuts[i]+1] (with cuts extended
// by 0 on the left and n−1 on the right), so the composite grid is
// point-matched with the unsplit one — the multi-zone cases the cluster
// engine shards across workers. Cuts must be strictly increasing with
// every zone at least four points deep.
func StackAlongJ(name string, n, kmax, lmax int, cuts []int) (grid.Case, []Interface) {
	if len(cuts) == 0 {
		panic("f3d: StackAlongJ needs at least one cut")
	}
	prev := 0
	for i, cut := range cuts {
		if cut < prev+2 || cut > n-4 {
			panic(fmt.Sprintf("f3d: StackAlongJ cut[%d]=%d out of range [%d, %d]", i, cut, prev+2, n-4))
		}
		prev = cut
	}
	parent := grid.NewZone(name, n, kmax, lmax)
	bounds := append(append([]int{0}, cuts...), n-1)
	zones := make([]grid.Zone, len(cuts)+1)
	ifaces := make([]Interface, len(cuts))
	for i := range zones {
		lo, hi := bounds[i], bounds[i+1]+1
		if i == len(zones)-1 {
			hi = n - 1
		}
		zones[i] = grid.Zone{
			Name: fmt.Sprintf("%s-z%d", name, i),
			JMax: hi - lo + 1, KMax: kmax, LMax: lmax,
			DJ: parent.DJ, DK: parent.DK, DL: parent.DL,
		}
		if i > 0 {
			ifaces[i-1] = Interface{Left: i - 1, Right: i}
		}
	}
	c := grid.Case{Name: name + "-stack", Zones: zones}
	return c, ifaces
}
