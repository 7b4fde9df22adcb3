package f3d

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/euler"
	"repro/internal/grid"
)

// exchangeSolver builds a small two-zone coupled solver with a pulse,
// the substrate for plane capture/receive tests.
func exchangeSolver(t testing.TB) *CacheSolver {
	t.Helper()
	c, ifaces := SplitAlongJ("ex", 12, 5, 4, 5)
	cfg := DefaultConfig(c)
	cfg.Interfaces = ifaces
	s, err := NewCacheSolver(cfg, CacheOptions{})
	if err != nil {
		t.Fatalf("solver: %v", err)
	}
	t.Cleanup(s.Close)
	InitPulse(s, 0.01)
	return s
}

func TestCapturePlaneMatchesInterfaceBuffers(t *testing.T) {
	s := exchangeSolver(t)
	s.Step() // give the faces non-trivial values

	// CapturePlane of zone 0's JMax side must equal what the local link
	// onto zone 1's J-min face captures, and zone 1's JMin side what the
	// link onto zone 0's J-max face captures.
	captureLinks(s.links, s.zones)
	for _, l := range s.links {
		p, err := CapturePlane(s, l.donor, 1-l.face)
		if err != nil {
			t.Fatalf("capture zone %d: %v", l.donor, err)
		}
		if !slices.Equal(p.Data, l.plane) {
			t.Fatalf("link onto zone %d face %v: CapturePlane and the link disagree", l.zone, l.face)
		}
	}
}

// receiverSolver builds a one-zone solver for zone zi of the exchange
// case whose J-min face (zi = 1) or J-max face (zi = 0) is Remote.
func receiverSolver(t *testing.T, zi int) *CacheSolver {
	t.Helper()
	c, _ := SplitAlongJ("ex", 12, 5, 4, 5)
	cfg := DefaultConfig(c)
	cfg.Case.Zones = c.Zones[zi : zi+1]
	cfg.Interfaces = []Interface{{Left: 0, Right: Remote}}
	if zi == 1 {
		cfg.Interfaces = []Interface{{Left: Remote, Right: 0}}
	}
	s := newCache(t, cfg, CacheOptions{})
	InitPulse(s, 0.01)
	return s
}

func TestCaptureReceiveRoundTrip(t *testing.T) {
	donor := exchangeSolver(t)
	donor.Step()

	// Capture zone 0's donor plane, retarget it to zone 1's JMin face,
	// hand it to a solver holding zone 1 with that face Remote, step, and
	// confirm the j=0 face holds exactly the donor values: boundary points
	// are not updated, so the step leaves the written plane in place.
	p, err := CapturePlane(donor, 0, FaceJMax)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	q := p.RetargetTo(0)
	if q.Zone != 0 || q.Face != FaceJMin {
		t.Fatalf("retarget: got zone %d face %v", q.Zone, q.Face)
	}
	want := slices.Clone(q.Data)
	s := receiverSolver(t, 1)
	if err := s.Receive(&q); err != nil {
		t.Fatalf("receive: %v", err)
	}
	q.Data[0] = math.NaN() // Receive copied the plane
	s.Step()
	got := make([]float64, len(want))
	copyPlane(s.Zones()[0], 0, got, false)
	if !slices.Equal(got, want) {
		t.Fatal("the received plane is not what the face holds after the step")
	}
}

func TestPlaneSerializationRoundTrip(t *testing.T) {
	s := exchangeSolver(t)
	s.Step()
	p, err := CapturePlane(s, 1, FaceJMin)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	p = p.RetargetTo(0)
	// Poison a value with a bit pattern decimal formats mangle.
	p.Data[3] = math.Nextafter(1.0/3.0, 1)

	b, err := p.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var q BoundaryPlane
	if err := q.UnmarshalBinary(b); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if q.Zone != p.Zone || q.Face != p.Face || q.KMax != p.KMax || q.LMax != p.LMax {
		t.Fatalf("header changed: %+v vs %+v", q, p)
	}
	if len(q.Data) != len(p.Data) {
		t.Fatalf("data length %d, want %d", len(q.Data), len(p.Data))
	}
	for i := range p.Data {
		if math.Float64bits(q.Data[i]) != math.Float64bits(p.Data[i]) {
			t.Fatalf("data[%d] not bitwise: %x vs %x", i, math.Float64bits(q.Data[i]), math.Float64bits(p.Data[i]))
		}
	}
}

func TestPlaneSerializationErrors(t *testing.T) {
	good := BoundaryPlane{Zone: 0, Face: FaceJMin, KMax: 2, LMax: 2, Data: make([]float64, 2*2*euler.NC)}
	b, err := good.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal good plane: %v", err)
	}

	cases := []struct {
		name string
		b    []byte
		want string
	}{
		{"truncated header", b[:10], "payload of"},
		{"truncated data", b[:len(b)-8], "want"},
		{"trailing bytes", append(append([]byte(nil), b...), 0), "want"},
		{"bad magic", func() []byte {
			c := append([]byte(nil), b...)
			c[0] ^= 0xff
			return c
		}(), "bad magic"},
		{"bad face", func() []byte {
			c := append([]byte(nil), b...)
			c[11] = byte(FaceKMin)
			return c
		}(), "bad face"},
		{"zero dims", func() []byte {
			c := append([]byte(nil), b...)
			c[12], c[13], c[14], c[15] = 0, 0, 0, 0
			return c
		}(), "bad dims"},
	}
	for _, tc := range cases {
		var p BoundaryPlane
		err := p.UnmarshalBinary(tc.b)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want substring %q", tc.name, err, tc.want)
		}
	}

	// Marshal of inconsistent planes must fail too.
	bad := good
	bad.Data = bad.Data[:5]
	if _, err := bad.MarshalBinary(); err == nil {
		t.Error("marshal with short data: no error")
	}
	bad = good
	bad.Face = FaceLMax
	if _, err := bad.MarshalBinary(); err == nil {
		t.Error("marshal with non-J face: no error")
	}
}

// FuzzBoundaryPlaneUnmarshal: plane payloads arrive from another
// process. Arbitrary bytes must never panic the decoder or make it
// allocate for dimensions the payload does not back, and whatever it
// accepts must re-marshal to exactly the bytes it was given — the
// encoding has one form per plane.
func FuzzBoundaryPlaneUnmarshal(f *testing.F) {
	s := exchangeSolver(f)
	s.Step()
	for _, face := range []Face{FaceJMin, FaceJMax} {
		p, err := CapturePlane(s, 1, face)
		if err != nil {
			f.Fatalf("capture: %v", err)
		}
		p = p.RetargetTo(0)
		b, err := p.MarshalBinary()
		if err != nil {
			f.Fatalf("marshal: %v", err)
		}
		f.Add(b)
		f.Add(b[:len(b)-3])
	}
	// A header claiming a 2^20 x 2^20 plane over no data.
	huge := binary.BigEndian.AppendUint32(nil, planeMagic)
	for _, v := range []uint32{0, uint32(FaceJMin), 1 << 20, 1 << 20} {
		huge = binary.BigEndian.AppendUint32(huge, v)
	}
	f.Add(huge)
	f.Fuzz(func(t *testing.T, b []byte) {
		var p BoundaryPlane
		if err := p.UnmarshalBinary(b); err != nil {
			return
		}
		out, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted payload does not re-marshal: %v", err)
		}
		if !bytes.Equal(out, b) {
			t.Fatalf("re-marshal changed the payload (%d -> %d bytes)", len(b), len(out))
		}
	})
}

func TestReceiveRejects(t *testing.T) {
	s := receiverSolver(t, 1) // zone 0's J-min face is Remote
	z := s.Zones()[0].Zone
	plane := func(zone int, face Face, kmax, n int) *BoundaryPlane {
		return &BoundaryPlane{Zone: zone, Face: face, KMax: kmax, LMax: z.LMax, Data: make([]float64, n)}
	}
	n := z.KMax * z.LMax * euler.NC
	for _, tc := range []struct {
		name string
		p    *BoundaryPlane
		want string
	}{
		{"mismatched dims", plane(0, FaceJMin, z.KMax+1, (z.KMax+1)*z.LMax*euler.NC), "onto zone"},
		{"short data", plane(0, FaceJMin, z.KMax, 3), "carries"},
		{"missing zone", plane(7, FaceJMin, z.KMax, n), "no remote link"},
		{"uncoupled face", plane(0, FaceJMax, z.KMax, n), "no remote link"},
		{"non-J face", plane(0, FaceKMin, z.KMax, n), "only"},
	} {
		if err := s.Receive(tc.p); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want %q", tc.name, err, tc.want)
		}
	}
	// A face coupled locally takes no plane either.
	if err := exchangeSolver(t).Receive(plane(1, FaceJMin, z.KMax, n)); err == nil ||
		!strings.Contains(err.Error(), "no remote link") {
		t.Errorf("locally coupled face: err %v", err)
	}

	// One plane per remote face per step: a second before the step is
	// refused, and a step with none panics instead of keeping BC values.
	p, err := CapturePlane(exchangeSolver(t), 0, FaceJMax)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	p = p.RetargetTo(0)
	if err := s.Receive(&p); err != nil {
		t.Fatalf("first plane: %v", err)
	}
	if err := s.Receive(&p); err == nil || !strings.Contains(err.Error(), "second") {
		t.Errorf("second plane in one step: err %v", err)
	}
	s.Step()
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "no boundary plane") {
				t.Errorf("step without a plane: panic %v", r)
			}
		}()
		s.Step()
	}()

	// Non-J faces are not exchangeable.
	if _, err := CapturePlane(s, 0, FaceKMax); err == nil {
		t.Error("capture of K face: no error")
	}
	if _, err := CapturePlane(s, 9, FaceJMin); err == nil {
		t.Error("capture of missing zone: no error")
	}
	// A serial solver has no Receive; a link needs a local side and
	// couples a face once.
	if _, err := NewVectorSolver(s.cfg); err == nil {
		t.Error("VectorSolver accepted a Remote side")
	}
	for _, ifaces := range [][]Interface{{{Left: Remote, Right: Remote}}, {{Left: Remote, Right: 0}, {Left: Remote, Right: 0}}} {
		cfg := s.cfg
		cfg.Interfaces = ifaces
		if err := cfg.Validate(); err == nil {
			t.Errorf("interfaces %v accepted", ifaces)
		}
	}
}

func TestZoneStateRestore(t *testing.T) {
	s := exchangeSolver(t)
	s.Step()
	// Appending after a prefix must leave the prefix alone.
	state, err := AppendZoneState([]byte("pre"), s, 1)
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if string(state[:3]) != "pre" {
		t.Fatalf("prefix overwritten: %q", state[:3])
	}
	state = state[3:]
	before := slices.Clone(s.Zones()[1].Q.Vec)
	s.Step()
	s.Step()
	if err := RestoreZoneState(s, 1, state); err != nil {
		t.Fatalf("restore: %v", err)
	}
	vecsBitEqual(t, "restored Q", s.Zones()[1].Q.Vec, before, len(before))
	// Error paths: bad zone, wrong storage size.
	if _, err := AppendZoneState(nil, s, 5); err == nil {
		t.Error("state of missing zone: no error")
	}
	if err := RestoreZoneState(s, 0, make([]byte, 24)); err == nil {
		t.Error("restore with wrong size: no error")
	}
	if err := RestoreZoneState(s, 1, state[:len(state)-1]); err == nil {
		t.Error("restore of ragged bits: no error")
	}
	if err := RestoreZoneState(s, -1, nil); err == nil {
		t.Error("restore of missing zone: no error")
	}
}

// TestZoneStateComponentMajor: a VectorSolver (component-major storage)
// encodes its zone state in point order — the very bytes a CacheSolver
// encodes for the same state — and restores it bit for bit.
func TestZoneStateComponentMajor(t *testing.T) {
	cfg := testConfig(7, 6, 5)
	v := newVector(t, cfg)
	c := newCache(t, cfg, CacheOptions{})
	InitPulse(v, 0.03)
	InitPulse(c, 0.03)
	v.Step()
	c.Step()
	state, err := AppendZoneState(nil, v, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := AppendZoneState(nil, c, 0); !bytes.Equal(state, want) {
		t.Fatal("vector and cache zone states of one solution differ")
	}
	before := slices.Clone(v.Zones()[0].Q.Data)
	v.Step()
	if err := RestoreZoneState(v, 0, state); err != nil {
		t.Fatal(err)
	}
	for i, x := range v.Zones()[0].Q.Data {
		if math.Float64bits(x) != math.Float64bits(before[i]) {
			t.Fatalf("restored value %d = %v, want %v", i, x, before[i])
		}
	}
}

// TestRemoteLinksReproduceZonalSolve is the keystone: driving two
// single-zone solvers whose facing sides are Remote, coupled through
// CapturePlane and Receive, must reproduce the coupled two-zone solver
// bitwise — the distributed exchange in miniature, before any
// transport is involved.
func TestRemoteLinksReproduceZonalSolve(t *testing.T) {
	c, ifaces := SplitAlongJ("remote", 14, 6, 5, 6)
	refCfg := DefaultConfig(c)
	refCfg.Interfaces = ifaces
	ref := newCache(t, refCfg, CacheOptions{})
	InitPulse(ref, 0.02)

	// Two "workers": each holds one zone of the same case, the other
	// side of the interface Remote. Dt must be shared, exactly as the
	// cluster engine shares it.
	mk := func(zi int, iface Interface) *CacheSolver {
		cfg := refCfg
		cfg.Case = grid.Case{Name: "w", Zones: []grid.Zone{c.Zones[zi]}}
		cfg.Interfaces = []Interface{iface}
		s := newCache(t, cfg, CacheOptions{})
		InitPulse(s, 0.02)
		return s
	}
	s0 := mk(0, Interface{Left: 0, Right: Remote})
	s1 := mk(1, Interface{Left: Remote, Right: 0})

	const steps = 6
	for i := 0; i < steps; i++ {
		// Capture at time level n on both workers, then exchange, then
		// step — the lockstep round of the cluster engine.
		p0, err := CapturePlane(s0, 0, FaceJMax)
		if err != nil {
			t.Fatalf("capture w0: %v", err)
		}
		p1, err := CapturePlane(s1, 0, FaceJMin)
		if err != nil {
			t.Fatalf("capture w1: %v", err)
		}
		q0, q1 := p0.RetargetTo(0), p1.RetargetTo(0)
		if err := s1.Receive(&q0); err != nil {
			t.Fatalf("receive w1: %v", err)
		}
		if err := s0.Receive(&q1); err != nil {
			t.Fatalf("receive w0: %v", err)
		}

		refSt := ref.Step()
		st0 := s0.Step()
		st1 := s1.Step()

		// Reassemble the global residual from the per-zone parts in
		// zone order.
		zr0, zr1 := s0.ZoneResiduals()[0], s1.ZoneResiduals()[0]
		res := math.Sqrt((zr0.SumSq + zr1.SumSq) / float64(zr0.Points+zr1.Points))
		if math.Float64bits(res) != math.Float64bits(refSt.Residual) {
			t.Fatalf("step %d: sharded residual %v, reference %v", i, res, refSt.Residual)
		}
		if md := math.Max(st0.MaxDelta, st1.MaxDelta); md != refSt.MaxDelta {
			t.Fatalf("step %d: sharded max-delta %v, reference %v", i, md, refSt.MaxDelta)
		}
	}

	// Final fields must match bitwise too.
	for zi, s := range []*CacheSolver{s0, s1} {
		refQ := ref.Zones()[zi].Q.Vec
		vecsBitEqual(t, fmt.Sprintf("zone %d sharded Q", zi), s.Zones()[0].Q.Vec, refQ, len(refQ))
	}
}
