package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// realFrames returns one populated message of each framed kind, built
// from the 3-zone test case the way the engine builds them: real plane
// payloads, real snapshot bits.
func realFrames(t testing.TB) []any {
	t.Helper()
	cfg, amp := testCase()
	zones := cfg.Case.Zones
	h := newTestHost(t, 3)
	// One shard per zone; the middle one is the fixture, fed by the
	// planes its two neighbours donate at creation.
	var create CreateShardRequest
	var created CreateShardResponse
	var inbox [][]byte
	for lo := range zones {
		req := CreateShardRequest{Job: "frames",
			Lo: lo, Hi: lo + 1, Config: cfg, PulseAmp: amp, Trace: "frames#1"}
		resp, err := h.Create(context.Background(), req)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if lo == 1 {
			create, created = req, resp
		} else {
			inbox = append(inbox, resp.Planes...)
		}
	}
	step := StepRequest{Job: "frames", ID: created.ID, Planes: inbox, Checkpoint: true, Trace: "frames#1"}
	stepped, err := h.Step(step)
	if err != nil {
		t.Fatalf("step: %v", err)
	}
	if len(created.Planes) != 2 || len(stepped.Planes) != 2 || len(stepped.Snapshots) != 1 {
		t.Fatalf("fixture shape: %d create planes, %d step planes, %d snapshots",
			len(created.Planes), len(stepped.Planes), len(stepped.Snapshots))
	}
	create.Restore = stepped.Snapshots
	create.Step = 1
	return []any{&create, &created, &step, &stepped}
}

// encodeFrame is writeFrame into memory, checking the announced size.
func encodeFrame(t testing.TB, msg any) []byte {
	t.Helper()
	var buf bytes.Buffer
	announced := int64(-1)
	if err := writeFrame(&buf, msg, func(n int64) { announced = n }); err != nil {
		t.Fatalf("writeFrame(%T): %v", msg, err)
	}
	if announced != int64(buf.Len()) {
		t.Fatalf("writeFrame(%T) announced %d bytes, wrote %d", msg, announced, buf.Len())
	}
	return buf.Bytes()
}

// decodeFrame reads b as a whole body into a fresh message of msg's type.
func decodeFrame(b []byte, limit int64, like any) (any, error) {
	out := reflect.New(reflect.TypeOf(like).Elem()).Interface()
	return out, readFrame(bytes.NewReader(b), limit, int64(len(b)), out, nil)
}

// TestFrameRoundTrip: every framed message survives encode → decode
// with equal fields and byte-identical blobs, and the blobs sit in the
// frame raw — the bytes MarshalBinary / AppendZoneState produced.
func TestFrameRoundTrip(t *testing.T) {
	for _, msg := range realFrames(t) {
		b := encodeFrame(t, msg)
		got, err := decodeFrame(b, maxShardBody, msg)
		if err != nil {
			t.Fatalf("%T: readFrame: %v", msg, err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("%T changed across the frame:\n got %+v\nwant %+v", msg, got, msg)
		}
		planes, snaps := frameBlobs(msg)
		if planes != nil {
			for i, p := range *planes {
				if !bytes.Contains(b, p) {
					t.Errorf("%T: plane %d is not in the frame verbatim", msg, i)
				}
			}
		}
		if snaps != nil {
			for _, s := range *snaps {
				if !bytes.Contains(b, s.Data) {
					t.Errorf("%T: snapshot of zone %d is not in the frame verbatim", msg, s.Zone)
				}
			}
		}
	}
}

// TestFrameReuse: snapshot blobs land in the offered buffers when those
// are big enough, and in fresh ones when not.
func TestFrameReuse(t *testing.T) {
	msgs := realFrames(t)
	stepped := msgs[3].(*StepResponse)
	b := encodeFrame(t, stepped)
	n := len(stepped.Snapshots[0].Data)
	for _, tc := range []struct {
		name   string
		buf    []byte
		reused bool
	}{
		{"roomy", make([]byte, n+8), true},
		{"exact", make([]byte, n), true},
		{"short", make([]byte, n-1), false},
	} {
		var got StepResponse
		if err := readFrame(bytes.NewReader(b), maxShardBody, int64(len(b)), &got, [][]byte{tc.buf}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(&got, stepped) {
			t.Errorf("%s: response changed when decoded into an offered buffer", tc.name)
		}
		if reused := &got.Snapshots[0].Data[0] == &tc.buf[:1][0]; reused != tc.reused {
			t.Errorf("%s: offered buffer reused = %v, want %v", tc.name, reused, tc.reused)
		}
	}
}

// rawFrame assembles a frame from a literal header and body, with no
// validation — the malformed-input builder.
func rawFrame(header string, blobs ...[]byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, frameMagic)
	b = binary.BigEndian.AppendUint32(b, uint32(len(header)))
	b = append(b, header...)
	for _, blob := range blobs {
		b = append(b, blob...)
	}
	return b
}

// TestFrameRejects: every malformed frame is an error naming the fault;
// lengths are refused against the cap and the body before allocation.
func TestFrameRejects(t *testing.T) {
	const limit = 1 << 10
	blob := bytes.Repeat([]byte{7}, 16)
	hugeHeader := binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, frameMagic), 1<<31)
	for _, tc := range []struct {
		name    string
		body    []byte
		into    any
		want    string
		tooBig  bool
		sizeOff int64 // added to len(body) for the declared size
	}{
		{name: "empty", body: nil, into: &StepRequest{}, want: "truncated in its prefix"},
		{name: "short prefix", body: []byte{0xf3, 0xd5}, into: &StepRequest{}, want: "truncated in its prefix"},
		{name: "old JSON body", body: []byte(`{"job":"j","id":"j-1","step":0}`), into: &StepRequest{}, want: "not a shard frame"},
		{name: "bad magic", body: append([]byte{0xde, 0xad, 0xbe, 0xef}, rawFrame(`{}`)[4:]...), into: &StepRequest{}, want: "not a shard frame"},
		{name: "header past body", body: rawFrame(`{"msg":{}}`)[:12], into: &StepRequest{}, want: "header of 10 bytes runs past"},
		{name: "header over cap", body: hugeHeader, into: &StepRequest{}, want: "header of 2147483648 bytes", tooBig: true},
		{name: "header not JSON", body: rawFrame(`{"msg":`), into: &StepRequest{}, want: "decode frame header"},
		{name: "header wrong type", body: rawFrame(`{"msg":{"step":"zero"}}`), into: &StepRequest{}, want: "decode frame header"},
		{name: "negative plane", body: rawFrame(`{"msg":{},"planes":[-1]}`), into: &StepRequest{}, want: "negative length"},
		{name: "plane past body", body: rawFrame(`{"msg":{},"planes":[17]}`, blob), into: &StepRequest{}, want: "plane of 17 bytes runs past"},
		{name: "plane over cap", body: rawFrame(`{"msg":{},"planes":[1099511627776]}`, blob), into: &StepRequest{}, want: "plane of 1099511627776 bytes", tooBig: true},
		{name: "lengths overflow", body: rawFrame(`{"msg":{},"planes":[9223372036854775807,9223372036854775807]}`, blob), into: &StepRequest{}, want: "frame exceeds", tooBig: true},
		{name: "snapshot past body", body: rawFrame(`{"msg":{},"snaps":[{"zone":0,"len":32}]}`, blob), into: &StepResponse{}, want: "snapshot of 32 bytes runs past"},
		{name: "negative snapshot", body: rawFrame(`{"msg":{},"snaps":[{"zone":0,"len":-8}]}`), into: &StepResponse{}, want: "negative length"},
		{name: "negative zone", body: rawFrame(`{"msg":{},"snaps":[{"zone":-1,"len":16}]}`, blob), into: &StepResponse{}, want: "negative zone"},
		{name: "bytes after frame", body: rawFrame(`{"msg":{},"planes":[8]}`, blob), into: &StepRequest{}, want: "declares 39 bytes, body has 47"},
		{name: "planes on create request", body: rawFrame(`{"msg":{},"planes":[16]}`, blob), into: &CreateShardRequest{}, want: "carries planes"},
		{name: "snapshots on step request", body: rawFrame(`{"msg":{},"snaps":[{"zone":0,"len":16}]}`, blob), into: &StepRequest{}, want: "carries snapshots"},
		{name: "body shorter than declared", body: rawFrame(`{"msg":{},"planes":[16]}`, blob[:8]), into: &StepRequest{}, want: "truncated in its planes", sizeOff: 8},
		{name: "undeclared length", body: rawFrame(`{"msg":{}}`), into: &StepRequest{}, want: "undeclared length", sizeOff: -1 << 40},
		{name: "body over cap", body: rawFrame(`{"msg":{}}`), into: &StepRequest{}, want: "frame exceeds", tooBig: true, sizeOff: limit},
	} {
		err := readFrame(bytes.NewReader(tc.body), limit, int64(len(tc.body))+tc.sizeOff, tc.into, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one containing %q", tc.name, err, tc.want)
			continue
		}
		if got := errors.Is(err, errFrameTooLarge); got != tc.tooBig {
			t.Errorf("%s: errFrameTooLarge = %v, want %v (%v)", tc.name, got, tc.tooBig, err)
		}
	}
	// A well-formed frame with no blobs and an empty message is fine.
	if err := readFrame(bytes.NewReader(rawFrame(`{"msg":{}}`)), limit, 18, &StepRequest{}, nil); err != nil {
		t.Errorf("minimal frame: %v", err)
	}
}

// FuzzFrame feeds arbitrary bytes to the frame decoder as each of the
// four message kinds. It must never panic, must never hand back more
// blob bytes than the cap (a lying length field allocates nothing), and
// whatever it accepts must re-encode to a frame that decodes and
// encodes back to the same bytes.
func FuzzFrame(f *testing.F) {
	for _, msg := range realFrames(f) {
		f.Add(encodeFrame(f, msg))
	}
	f.Add([]byte(`{"job":"j","id":"j-1","step":0}`))
	f.Add(rawFrame(`{"msg":{},"planes":[1099511627776]}`))
	f.Add(rawFrame(`{"msg":{},"planes":[-1,9223372036854775807]}`))
	f.Add(rawFrame(`{"msg":{"zones":[{"zone":0,"sumsq":1e-3,"points":9}]},"snaps":[{"zone":2,"len":4}]}`, []byte{1, 2, 3, 4}))
	// The corpus frames are a few hundred KB; the cap sits just above so
	// the fuzzer can reach both sides of it.
	const limit = 1 << 20
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, like := range []any{&CreateShardRequest{}, &CreateShardResponse{}, &StepRequest{}, &StepResponse{}} {
			msg, err := decodeFrame(data, limit, like)
			if err != nil {
				continue
			}
			planes, snaps := frameBlobs(msg)
			held := 0
			if planes != nil {
				for _, p := range *planes {
					held += len(p)
				}
			}
			if snaps != nil {
				for _, s := range *snaps {
					held += len(s.Data)
				}
			}
			if held > len(data) || held > limit {
				t.Fatalf("%T: decoded %d blob bytes from a %d-byte body (cap %d)", msg, held, len(data), limit)
			}
			// Fixed point, compared as bytes: empty and absent lists
			// are one thing on the wire.
			var first, second bytes.Buffer
			if err := writeFrame(&first, msg, nil); err != nil {
				continue // e.g. a config the header cannot re-encode
			}
			again, err := decodeFrame(first.Bytes(), maxShardBody, like)
			if err != nil {
				t.Fatalf("%T: re-encoded frame rejected: %v", msg, err)
			}
			if err := writeFrame(&second, again, nil); err != nil {
				t.Fatalf("%T: second encode: %v", msg, err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("%T: encode -> decode -> encode changed the frame", msg)
			}
		}
	})
}
