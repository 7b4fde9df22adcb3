package f3d

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/euler"
	"repro/internal/grid"
)

// Boundary-plane exchange. The zonal scheme couples zones through
// whole J-planes of conserved state captured at the start of a time
// step, one link per coupled face (zonal.go). When the zones of one
// case are sharded across daemons, a shard is a solver whose
// cross-shard interfaces have a Remote side: each worker captures the
// donor planes its neighbours need (CapturePlane), the coordinator
// routes them, and the receiver hands each to Receive, which fills the
// remote link. The step writes remote and local links at the same
// point, so the distributed step reproduces the single-node step
// bitwise.

// BoundaryPlane is one zone's J-face exchange payload: a KMax×LMax
// plane of conserved state headed for the given face of zone Zone
// (indices are the receiver's, in the receiving solver's case).
// Only the J faces participate: F3D's zonal coupling stacks zones
// along J (see Interface).
type BoundaryPlane struct {
	// Zone is the receiving zone's index in the receiver's case.
	Zone int
	// Face is the receiving face: FaceJMin (j=0) or FaceJMax
	// (j=JMax-1).
	Face Face
	// KMax, LMax are the plane's dimensions; they must match the
	// receiving zone's.
	KMax, LMax int
	// Data holds KMax*LMax*euler.NC conserved values in copyPlane
	// order: l-major, then k, then component.
	Data []float64
}

// planeValues returns the expected element count of the plane.
func (p *BoundaryPlane) planeValues() int { return p.KMax * p.LMax * euler.NC }

// Validate checks internal consistency of the plane itself.
func (p *BoundaryPlane) Validate() error {
	if p.Face != FaceJMin && p.Face != FaceJMax {
		return fmt.Errorf("f3d: boundary plane for face %v (only %v and %v are exchanged)",
			p.Face, FaceJMin, FaceJMax)
	}
	if p.KMax < 1 || p.LMax < 1 {
		return fmt.Errorf("f3d: boundary plane with non-positive dims %dx%d", p.KMax, p.LMax)
	}
	if len(p.Data) != p.planeValues() {
		return fmt.Errorf("f3d: boundary plane %dx%d carries %d values, want %d",
			p.KMax, p.LMax, len(p.Data), p.planeValues())
	}
	return nil
}

// CapturePlane snapshots the donor plane of zone zi of the solver for
// a neighbour coupled across the given face of zi: for FaceJMax the
// j=JMax-2 interior plane (feeding a right neighbour's j=0 face), for
// FaceJMin the j=1 interior plane (feeding a left neighbour's j=JMax-1
// face). The returned plane is addressed to the *donor's* zone and
// face; the caller re-addresses it to the receiver (RetargetTo) before
// handing it to Receive. Capture must happen at the start of the step,
// before any zone advances — the time level the local links capture at.
func CapturePlane(s Solver, zi int, face Face) (BoundaryPlane, error) {
	zones := s.Zones()
	if zi < 0 || zi >= len(zones) {
		return BoundaryPlane{}, fmt.Errorf("f3d: CapturePlane zone %d of %d", zi, len(zones))
	}
	if face != FaceJMin && face != FaceJMax {
		return BoundaryPlane{}, fmt.Errorf("f3d: CapturePlane face %v (only %v and %v are exchanged)",
			face, FaceJMin, FaceJMax)
	}
	z := zones[zi].Zone
	p := BoundaryPlane{
		Zone: zi, Face: face,
		KMax: z.KMax, LMax: z.LMax,
		Data: make([]float64, z.KMax*z.LMax*euler.NC),
	}
	copyPlane(zones[zi], planeJ(z, face, 1), p.Data, false)
	return p, nil
}

// RetargetTo re-addresses a captured donor plane to its receiver: zone
// index in the receiving case and the receiving face. A plane captured
// on a FaceJMax donor lands on the neighbour's FaceJMin and vice
// versa; Retarget flips the face accordingly.
func (p BoundaryPlane) RetargetTo(zone int) BoundaryPlane {
	p.Zone = zone
	if p.Face == FaceJMax {
		p.Face = FaceJMin
	} else {
		p.Face = FaceJMax
	}
	return p
}

// Receive stages the plane of a remote link — an Interface side that is
// Remote — for the next Step, which writes it onto its face where it
// writes the local links: after the zone's boundary conditions, before
// its right-hand side. The plane must match its zone's dimensions, and
// each remote face takes exactly one plane per step: Receive refuses a
// second before the step that consumes the first, and Step panics on a
// remote face that got none. Data is copied.
func (c *stepCore) Receive(p *BoundaryPlane) error {
	if err := p.Validate(); err != nil {
		return err
	}
	i := slices.IndexFunc(c.links, func(l link) bool {
		return l.donor == Remote && l.zone == p.Zone && l.face == p.Face
	})
	if i < 0 {
		return fmt.Errorf("f3d: boundary plane for zone %d face %v, which has no remote link", p.Zone, p.Face)
	}
	l := &c.links[i]
	if z := c.zones[l.zone].Zone; z.KMax != p.KMax || z.LMax != p.LMax {
		return fmt.Errorf("f3d: boundary plane %dx%d onto zone %q face %dx%d",
			p.KMax, p.LMax, z.Name, z.KMax, z.LMax)
	}
	if l.fresh {
		return fmt.Errorf("f3d: second boundary plane for zone %d face %v in one step", p.Zone, p.Face)
	}
	copy(l.plane, p.Data)
	l.fresh = true
	return nil
}

// planeMagic distinguishes (and versions) the wire encoding.
const planeMagic = uint32(0xf3d70001) // "f3d plane", v1

// planeHeader is the fixed-size prefix of the encoding: magic, zone,
// face, KMax, LMax (uint32 each).
const planeHeaderBytes = 5 * 4

// MarshalBinary encodes the plane for the transport: a fixed header
// followed by the IEEE-754 bits of every value, all big-endian. The
// encoding is exact — bitwise conformance of the distributed solve
// depends on the payload never passing through a lossy decimal form.
func (p *BoundaryPlane) MarshalBinary() ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Zone < 0 {
		return nil, fmt.Errorf("f3d: boundary plane with negative zone %d", p.Zone)
	}
	buf := make([]byte, planeHeaderBytes+8*len(p.Data))
	binary.BigEndian.PutUint32(buf[0:], planeMagic)
	binary.BigEndian.PutUint32(buf[4:], uint32(p.Zone))
	binary.BigEndian.PutUint32(buf[8:], uint32(p.Face))
	binary.BigEndian.PutUint32(buf[12:], uint32(p.KMax))
	binary.BigEndian.PutUint32(buf[16:], uint32(p.LMax))
	off := planeHeaderBytes
	for _, v := range p.Data {
		binary.BigEndian.PutUint64(buf[off:], math.Float64bits(v))
		off += 8
	}
	return buf, nil
}

// PlaneZone peeks the receiving zone out of a MarshalBinary payload
// without decoding the plane — the routing key of an exchange round.
func PlaneZone(b []byte) (int, error) {
	if len(b) < 8 {
		return 0, fmt.Errorf("f3d: boundary plane payload of %d bytes", len(b))
	}
	return int(binary.BigEndian.Uint32(b[4:])), nil
}

// UnmarshalBinary decodes a plane encoded by MarshalBinary, rejecting
// truncated, oversized and dimension-inconsistent payloads.
func (p *BoundaryPlane) UnmarshalBinary(b []byte) error {
	if len(b) < planeHeaderBytes {
		return fmt.Errorf("f3d: boundary plane payload of %d bytes, want >= %d", len(b), planeHeaderBytes)
	}
	if m := binary.BigEndian.Uint32(b[0:]); m != planeMagic {
		return fmt.Errorf("f3d: boundary plane bad magic %#x", m)
	}
	q := BoundaryPlane{
		Zone: int(binary.BigEndian.Uint32(b[4:])),
		Face: Face(binary.BigEndian.Uint32(b[8:])),
		KMax: int(binary.BigEndian.Uint32(b[12:])),
		LMax: int(binary.BigEndian.Uint32(b[16:])),
	}
	if q.Face != FaceJMin && q.Face != FaceJMax {
		return fmt.Errorf("f3d: boundary plane bad face %d", int(q.Face))
	}
	if q.KMax < 1 || q.LMax < 1 || q.KMax > 1<<20 || q.LMax > 1<<20 {
		return fmt.Errorf("f3d: boundary plane bad dims %dx%d", q.KMax, q.LMax)
	}
	n := q.planeValues()
	if want := planeHeaderBytes + 8*n; len(b) != want {
		return fmt.Errorf("f3d: boundary plane %dx%d payload of %d bytes, want %d", q.KMax, q.LMax, len(b), want)
	}
	q.Data = make([]float64, n)
	off := planeHeaderBytes
	for i := range q.Data {
		q.Data[i] = math.Float64frombits(binary.BigEndian.Uint64(b[off:]))
		off += 8
	}
	*p = q
	return nil
}

// AppendZoneState appends zone zi's conserved field to dst as packed
// big-endian IEEE-754 bits in point order — the components of point 0,
// then point 1, … in Zone.Index order — whatever the solver's storage
// layout. It is the one zone-state codec: the cluster engine ships it
// so a lost worker's zones can be restored on a survivor, and each zone
// of a checkpoint file (SaveCheckpoint) is this payload. Like the plane
// encoding it is exact. Appending lets a caller encode every checkpoint
// into one reused buffer.
func AppendZoneState(dst []byte, s Solver, zi int) ([]byte, error) {
	zones := s.Zones()
	if zi < 0 || zi >= len(zones) {
		return dst, fmt.Errorf("f3d: AppendZoneState zone %d of %d", zi, len(zones))
	}
	q := &zones[zi].Q
	if q.Layout != grid.PointMajor {
		pm := grid.NewStateField(q.Zone, q.NC, grid.PointMajor)
		pm.CopyFrom(q)
		q = &pm
	}
	off := len(dst)
	dst = slices.Grow(dst, 8*fieldValues(q))[:off+8*fieldValues(q)]
	for i := range q.Vec {
		for _, v := range &q.Vec[i] {
			binary.BigEndian.PutUint64(dst[off:], math.Float64bits(v))
			off += 8
		}
	}
	return dst, nil
}

// fieldValues is the number of values f stores, in either layout.
func fieldValues(f *grid.StateField) int { return f.NC * f.Zone.Points() }

// RestoreZoneState writes AppendZoneState bits back onto zone zi of the
// solver, in whichever layout it stores them. The payload must match
// the zone's size exactly.
func RestoreZoneState(s Solver, zi int, b []byte) error {
	zones := s.Zones()
	if zi < 0 || zi >= len(zones) {
		return fmt.Errorf("f3d: zone state for zone %d of %d", zi, len(zones))
	}
	q := &zones[zi].Q
	if len(b) != 8*fieldValues(q) {
		return fmt.Errorf("f3d: zone state of %d bytes onto zone %q storage of %d values",
			len(b), zones[zi].Zone.Name, fieldValues(q))
	}
	pm := q
	if q.Layout != grid.PointMajor {
		f := grid.NewStateField(q.Zone, q.NC, grid.PointMajor)
		pm = &f
	}
	for i := range pm.Vec {
		for c := range pm.Vec[i] {
			pm.Vec[i][c] = math.Float64frombits(binary.BigEndian.Uint64(b))
			b = b[8:]
		}
	}
	if q.Layout != grid.PointMajor {
		q.CopyFrom(pm)
	}
	return nil
}
