package f3d

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"repro/internal/euler"
	"repro/internal/grid"
)

// exchangeSolver builds a small two-zone coupled solver with a pulse,
// the substrate for plane capture/apply tests.
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

	// CapturePlane of zone 0's JMax side must equal what
	// captureInterfaces stores in toRight, and zone 1's JMin side must
	// equal toLeft.
	bufs := newIfaceBuffers(s.cfg.Case, s.cfg.Interfaces)
	captureInterfaces(s.zones, s.cfg.Interfaces, bufs)

	p0, err := CapturePlane(s, 0, FaceJMax)
	if err != nil {
		t.Fatalf("capture zone 0: %v", err)
	}
	p1, err := CapturePlane(s, 1, FaceJMin)
	if err != nil {
		t.Fatalf("capture zone 1: %v", err)
	}
	for i := range p0.Data {
		if p0.Data[i] != bufs[0].toRight[i] {
			t.Fatalf("toRight[%d]: captured %v, buffer %v", i, p0.Data[i], bufs[0].toRight[i])
		}
		if p1.Data[i] != bufs[0].toLeft[i] {
			t.Fatalf("toLeft[%d]: captured %v, buffer %v", i, p1.Data[i], bufs[0].toLeft[i])
		}
	}
}

func TestCaptureApplyRoundTrip(t *testing.T) {
	s := exchangeSolver(t)
	s.Step()

	// Capture zone 0's donor plane, retarget it to zone 1's JMin face,
	// apply, and confirm zone 1's j=0 face holds exactly the donor
	// values.
	p, err := CapturePlane(s, 0, FaceJMax)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	q := p.RetargetTo(1)
	if q.Zone != 1 || q.Face != FaceJMin {
		t.Fatalf("retarget: got zone %d face %v", q.Zone, q.Face)
	}
	if err := q.Apply(s); err != nil {
		t.Fatalf("apply: %v", err)
	}
	z1 := s.Zones()[1]
	var buf [euler.NC]float64
	pos := 0
	for l := 0; l < z1.Zone.LMax; l++ {
		for k := 0; k < z1.Zone.KMax; k++ {
			z1.Q.Point(0, k, l, buf[:])
			for c := 0; c < euler.NC; c++ {
				if buf[c] != q.Data[pos+c] {
					t.Fatalf("face point (%d,%d) comp %d: %v, want %v", k, l, c, buf[c], q.Data[pos+c])
				}
			}
			pos += euler.NC
		}
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

func TestPlaneApplyDimensionMismatch(t *testing.T) {
	s := exchangeSolver(t)
	z := s.Zones()[0].Zone

	// Wrong KMax/LMax for the receiving zone.
	p := BoundaryPlane{Zone: 0, Face: FaceJMin, KMax: z.KMax + 1, LMax: z.LMax,
		Data: make([]float64, (z.KMax+1)*z.LMax*euler.NC)}
	if err := p.Apply(s); err == nil || !strings.Contains(err.Error(), "onto zone") {
		t.Errorf("mismatched dims: err %v", err)
	}
	// Data length inconsistent with the declared dims.
	p = BoundaryPlane{Zone: 0, Face: FaceJMin, KMax: z.KMax, LMax: z.LMax, Data: make([]float64, 3)}
	if err := p.Apply(s); err == nil || !strings.Contains(err.Error(), "carries") {
		t.Errorf("short data: err %v", err)
	}
	// Zone out of range.
	p = BoundaryPlane{Zone: 7, Face: FaceJMin, KMax: z.KMax, LMax: z.LMax,
		Data: make([]float64, z.KMax*z.LMax*euler.NC)}
	if err := p.Apply(s); err == nil || !strings.Contains(err.Error(), "zone 7") {
		t.Errorf("bad zone: err %v", err)
	}
	// Non-J faces are not exchangeable.
	if _, err := CapturePlane(s, 0, FaceKMax); err == nil {
		t.Error("capture of K face: no error")
	}
	if _, err := CapturePlane(s, 9, FaceJMin); err == nil {
		t.Error("capture of missing zone: no error")
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
	before := append([]float64(nil), s.Zones()[1].Q.Data...)
	s.Step()
	s.Step()
	if err := RestoreZoneState(s, 1, state); err != nil {
		t.Fatalf("restore: %v", err)
	}
	after := s.Zones()[1].Q.Data
	for i := range before {
		if math.Float64bits(before[i]) != math.Float64bits(after[i]) {
			t.Fatalf("Q[%d] not restored bitwise", i)
		}
	}
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

// TestBoundaryHookReproducesZonalSolve is the keystone: driving two
// single-zone solvers whose coupling goes through CapturePlane /
// BoundaryHook + Apply must reproduce the coupled two-zone solver
// bitwise — the distributed exchange in miniature, before any
// transport is involved.
func TestBoundaryHookReproducesZonalSolve(t *testing.T) {
	c, ifaces := SplitAlongJ("hook", 14, 6, 5, 6)
	refCfg := DefaultConfig(c)
	refCfg.Interfaces = ifaces
	ref, err := NewCacheSolver(refCfg, CacheOptions{})
	if err != nil {
		t.Fatalf("ref solver: %v", err)
	}
	defer ref.Close()
	InitPulse(ref, 0.02)

	// Two "workers": each holds one zone of the same case, with no
	// local interfaces; cross planes go through the exchange API. Dt
	// must be shared, exactly as the cluster engine shares it.
	mk := func(zi int) (*CacheSolver, *[]BoundaryPlane) {
		sub := grid.Case{Name: "w", Zones: []grid.Zone{c.Zones[zi]}}
		cfg := refCfg
		cfg.Case = sub
		cfg.Interfaces = nil
		inbox := &[]BoundaryPlane{}
		s, err := NewCacheSolver(cfg, CacheOptions{})
		if err != nil {
			t.Fatalf("worker solver: %v", err)
		}
		t.Cleanup(s.Close)
		InitPulse(s, 0.02)
		return s, inbox
	}
	s0, in0 := mk(0)
	s1, in1 := mk(1)
	// Install hooks now that the solvers exist (the hook closes over
	// its own solver).
	s0.opts.BoundaryHook = func(zone int) {
		for i := range *in0 {
			if err := (*in0)[i].Apply(s0); err != nil {
				t.Errorf("apply on worker 0: %v", err)
			}
		}
	}
	s1.opts.BoundaryHook = func(zone int) {
		for i := range *in1 {
			if err := (*in1)[i].Apply(s1); err != nil {
				t.Errorf("apply on worker 1: %v", err)
			}
		}
	}

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
		*in1 = []BoundaryPlane{p0.RetargetTo(0)}
		*in0 = []BoundaryPlane{p1.RetargetTo(0)}

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
		refQ := ref.Zones()[zi].Q.Data
		gotQ := s.Zones()[0].Q.Data
		for i := range refQ {
			if math.Float64bits(refQ[i]) != math.Float64bits(gotQ[i]) {
				t.Fatalf("zone %d Q[%d]: sharded %v, reference %v", zi, i, gotQ[i], refQ[i])
			}
		}
	}
}
