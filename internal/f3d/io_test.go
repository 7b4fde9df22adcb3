package f3d

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/grid"
)

func TestCheckpointRoundTrip(t *testing.T) {
	cfg := DefaultConfig(grid.Scaled(grid.Paper1M(), 0.1))
	a := newCache(t, cfg, CacheOptions{})
	InitPulse(a, 0.03)
	for i := 0; i < 4; i++ {
		a.Step()
	}
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, a, 4); err != nil {
		t.Fatal(err)
	}

	b := newCache(t, cfg, CacheOptions{})
	InitUniform(b)
	steps, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), b)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 4 {
		t.Errorf("restored step count %d, want 4", steps)
	}
	if d := MaxPointwiseDiff(a, b); d != 0 {
		t.Fatalf("restored solution differs by %g", d)
	}
	// A restarted run continues exactly like the uninterrupted one.
	ra := a.Step()
	rb := b.Step()
	if ra.Residual != rb.Residual {
		t.Errorf("restart diverges: %.17g vs %.17g", ra.Residual, rb.Residual)
	}
}

func TestCheckpointCrossVariantRestart(t *testing.T) {
	// A checkpoint written by either solver restarts the other (the
	// format is layout-independent) — and the two then step
	// identically.
	cfg := testConfig(10, 9, 8)
	c := newCache(t, cfg, CacheOptions{})
	v := newVector(t, cfg)
	for _, dir := range []struct {
		name     string
		from, to Solver
	}{{"cache to vector", c, v}, {"vector to cache", v, c}} {
		InitPulse(dir.from, 0.02)
		dir.from.Step()
		var buf bytes.Buffer
		if err := SaveCheckpoint(&buf, dir.from, 1); err != nil {
			t.Fatal(err)
		}
		InitUniform(dir.to)
		if _, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), dir.to); err != nil {
			t.Fatalf("%s: %v", dir.name, err)
		}
		if rf, rt := dir.from.Step(), dir.to.Step(); rf.Residual != rt.Residual {
			t.Errorf("%s: restart diverges: %.17g vs %.17g", dir.name, rf.Residual, rt.Residual)
		}
	}
}

// TestCheckpointIsZoneStates pins the one zone-state codec: after the
// header, each zone of a checkpoint file is its three dimensions and
// then, byte for byte, its AppendZoneState payload — from the cache
// and the vector solver alike, whose payloads are the same bytes.
func TestCheckpointIsZoneStates(t *testing.T) {
	c, ifaces := SplitAlongJ("ckpt", 12, 5, 4, 5)
	cfg := DefaultConfig(c)
	cfg.Interfaces = ifaces
	cache := newCache(t, cfg, CacheOptions{})
	vec := newVector(t, cfg)
	var files [2][]byte
	for i, s := range []Solver{cache, vec} {
		InitPulse(s, 0.03)
		s.Step()
		var buf bytes.Buffer
		if err := SaveCheckpoint(&buf, s, 1); err != nil {
			t.Fatal(err)
		}
		files[i] = buf.Bytes()
		rest := files[i][32:] // magic, version, steps, zone count
		for zi, zs := range s.Zones() {
			state, err := AppendZoneState(nil, s, zi)
			if err != nil {
				t.Fatal(err)
			}
			dims := rest[:24]
			for d, want := range []int{zs.Zone.JMax, zs.Zone.KMax, zs.Zone.LMax} {
				if got := binary.BigEndian.Uint64(dims[8*d:]); got != uint64(want) {
					t.Fatalf("%T zone %d dim %d = %d, want %d", s, zi, d, got, want)
				}
			}
			if !bytes.Equal(rest[24:24+len(state)], state) {
				t.Fatalf("%T zone %d: checkpoint payload is not its AppendZoneState bits", s, zi)
			}
			rest = rest[24+len(state):]
		}
		if len(rest) != 4 {
			t.Fatalf("%T: %d bytes after the last zone, want the 4-byte CRC", s, len(rest))
		}
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Error("cache and vector checkpoints of one state differ")
	}
}

func TestCheckpointErrors(t *testing.T) {
	cfg := testConfig(8, 8, 8)
	s := newCache(t, cfg, CacheOptions{})
	InitUniform(s)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, s, 7); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Wrong magic.
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xFF
	if _, err := LoadCheckpoint(bytes.NewReader(bad), s); err == nil {
		t.Error("corrupt magic accepted")
	}
	// A version-1 header: magic and version, little-endian.
	v1 := binary.LittleEndian.AppendUint64(nil, checkpointMagic)
	v1 = binary.LittleEndian.AppendUint64(v1, 1)
	if _, err := LoadCheckpoint(bytes.NewReader(append(v1, good[16:]...)), s); err == nil ||
		!strings.Contains(err.Error(), "unsupported checkpoint version 1") {
		t.Errorf("version-1 header: err = %v, want unsupported version 1", err)
	}
	// Flipped payload bit → CRC failure.
	bad = append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0x01
	if _, err := LoadCheckpoint(bytes.NewReader(bad), s); err == nil {
		t.Error("corrupt payload accepted")
	}
	// Truncated file.
	if _, err := LoadCheckpoint(bytes.NewReader(good[:len(good)-10]), s); err == nil {
		t.Error("truncated checkpoint accepted")
	}
	// Dimension mismatch.
	other := newCache(t, testConfig(9, 8, 8), CacheOptions{})
	if _, err := LoadCheckpoint(bytes.NewReader(good), other); err == nil {
		t.Error("dims mismatch accepted")
	}
	// A step count no int holds (CRC-valid: Save writes what it is
	// given) must not restart a run at a negative step.
	buf.Reset()
	if err := SaveCheckpoint(&buf, s, -1); err != nil {
		t.Fatal(err)
	}
	if steps, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), s); err == nil {
		t.Errorf("step count 2^64-1 accepted as %d", steps)
	}
	// Zone-count mismatch.
	multi := newCache(t, DefaultConfig(grid.Scaled(grid.Paper1M(), 0.1)), CacheOptions{})
	if _, err := LoadCheckpoint(bytes.NewReader(good), multi); err == nil {
		t.Error("zone count mismatch accepted")
	}
}

// FuzzLoadCheckpoint feeds arbitrary bytes to the checkpoint decoder:
// it must never panic, and whatever it accepts must be a checkpoint —
// a non-negative step count and a solution that saves back to the very
// bytes that were loaded.
func FuzzLoadCheckpoint(f *testing.F) {
	s, err := NewCacheSolver(testConfig(4, 3, 3), CacheOptions{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	InitPulse(s, 0.02)
	var buf bytes.Buffer
	for _, steps := range []int{0, 7, -1} {
		buf.Reset()
		if err := SaveCheckpoint(&buf, s, steps); err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), buf.Bytes()...))
	}
	f.Add(buf.Bytes()[:buf.Len()/2])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		steps, err := LoadCheckpoint(bytes.NewReader(data), s)
		if err != nil {
			return
		}
		if steps < 0 {
			t.Fatalf("accepted a negative step count %d", steps)
		}
		var out bytes.Buffer
		if err := SaveCheckpoint(&out, s, steps); err != nil {
			t.Fatal(err)
		}
		// Bytes after the CRC are not part of the checkpoint.
		if len(data) < out.Len() || !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatalf("accepted %d bytes that save back as %d different bytes", len(data), out.Len())
		}
	})
}
