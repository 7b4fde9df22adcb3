package cluster

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
)

// The shard wire frame. POST /shards/create and POST /shards/step carry
// their request and response bodies as one length-prefixed frame; bulk
// data never passes through a text form. All integers are big-endian:
//
//	magic   uint32  frameMagic
//	hdrLen  uint32  byte length of the JSON header
//	header  hdrLen bytes of JSON:
//	          {"msg":    the message's non-bulk fields (ids, step,
//	                     trace, ZoneParts, max_delta, zones, config),
//	           "planes": [byte length of each plane blob],
//	           "snaps":  [{"zone": global zone, "len": byte length}]}
//	blobs   the plane payloads (f3d.BoundaryPlane.MarshalBinary), then
//	        the snapshot bits (f3d.AppendZoneState), back to back in
//	        header order
//
// Blobs carry lengths, never offsets, so they cannot overlap; the
// declared lengths must add up to exactly the body. /shards/release and
// error bodies stay plain JSON — they are tiny.
const (
	frameMagic       = uint32(0xf3d5f001) // "f3d shard frame", v1
	framePrefixBytes = 8
	frameContentType = "application/x-f3d-shard-frame"
)

// errFrameTooLarge marks a frame whose declared size exceeds the
// reader's cap: a 413 on the worker, a refused response on the
// coordinator.
var errFrameTooLarge = errors.New("frame exceeds the body cap")

// frameHeader is the JSON part of a frame. Msg holds a pointer to the
// message struct, whose bulk fields are tagged json:"-".
type frameHeader struct {
	Msg    any       `json:"msg"`
	Planes []int64   `json:"planes,omitempty"`
	Snaps  []snapLen `json:"snaps,omitempty"`
}

// snapLen announces one snapshot blob.
type snapLen struct {
	Zone int   `json:"zone"`
	Len  int64 `json:"len"`
}

// frameBlobs returns where msg keeps its bulk fields; a nil pointer
// means the message has no field of that kind. msg must be a pointer
// to one of the four framed shard messages.
func frameBlobs(msg any) (planes *[][]byte, snaps *[]SnapshotWire) {
	switch m := msg.(type) {
	case *CreateShardRequest:
		return nil, &m.Restore
	case *CreateShardResponse:
		return &m.Planes, nil
	case *StepRequest:
		return &m.Planes, nil
	case *StepResponse:
		return &m.Planes, &m.Snapshots
	}
	panic(fmt.Sprintf("cluster: %T is not a framed message", msg))
}

// writeFrame encodes msg as one frame onto w: prefix and header in one
// write, then each blob straight from the slice the message holds, with
// no intermediate copy. sized, when non-nil, is told the frame's total
// size before the first byte is written: an HTTP response must declare
// it as Content-Length, which readFrame checks every length against.
func writeFrame(w io.Writer, msg any, sized func(int64)) error {
	planes, snaps := frameBlobs(msg)
	h := frameHeader{Msg: msg}
	var blobs [][]byte
	if planes != nil {
		for _, p := range *planes {
			h.Planes = append(h.Planes, int64(len(p)))
			blobs = append(blobs, p)
		}
	}
	if snaps != nil {
		for _, s := range *snaps {
			h.Snaps = append(h.Snaps, snapLen{Zone: s.Zone, Len: int64(len(s.Data))})
			blobs = append(blobs, s.Data)
		}
	}
	hdr, err := json.Marshal(h)
	if err != nil {
		return fmt.Errorf("cluster: encode frame header: %w", err)
	}
	if len(hdr) > math.MaxUint32 {
		return fmt.Errorf("cluster: frame header of %d bytes", len(hdr))
	}
	head := make([]byte, framePrefixBytes, framePrefixBytes+len(hdr))
	binary.BigEndian.PutUint32(head[0:], frameMagic)
	binary.BigEndian.PutUint32(head[4:], uint32(len(hdr)))
	head = append(head, hdr...)
	if sized != nil {
		size := int64(len(head))
		for _, b := range blobs {
			size += int64(len(b))
		}
		sized(size)
	}
	if _, err := w.Write(head); err != nil {
		return err
	}
	for _, b := range blobs {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// readFrame decodes one frame from r into msg. limit caps the whole
// frame; size is the body length the transport declared
// (Content-Length) — a body of undeclared length is refused, which both
// ends can afford because both always declare it. Every length in the
// frame is checked against limit and size before anything is allocated
// for it, so a lying length field can make the reader allocate no more
// than the declared body, itself capped; and the frame must fill the
// body exactly. Snapshot blobs land
// in reuse's buffers where those are large enough. Errors wrap
// errFrameTooLarge when the body or a declared length exceeds limit;
// read errors from r are wrapped, so an http.MaxBytesError stays
// visible to errors.As.
func readFrame(r io.Reader, limit, size int64, msg any, reuse [][]byte) error {
	if size < 0 {
		return errors.New("cluster: shard frame body of undeclared length (Content-Length required)")
	}
	if size > limit {
		return fmt.Errorf("cluster: body of %d bytes: %w (%d)", size, errFrameTooLarge, limit)
	}
	var prefix [framePrefixBytes]byte
	if err := readFull(r, prefix[:], "prefix"); err != nil {
		return err
	}
	if m := binary.BigEndian.Uint32(prefix[0:]); m != frameMagic {
		return fmt.Errorf("cluster: body is not a shard frame (magic %#x, want %#x): "+
			"/shards/create and /shards/step take the binary frame, not JSON", m, frameMagic)
	}
	total := int64(framePrefixBytes)
	// claim accounts n more bytes to the frame, refusing what cannot
	// fit the cap or the declared body.
	claim := func(n int64, what string) error {
		switch {
		case n < 0:
			return fmt.Errorf("cluster: frame %s with negative length %d", what, n)
		case n > limit-total:
			return fmt.Errorf("cluster: frame %s of %d bytes: %w (%d)", what, n, errFrameTooLarge, limit)
		case n > size-total:
			return fmt.Errorf("cluster: frame %s of %d bytes runs past the %d-byte body", what, n, size)
		}
		total += n
		return nil
	}
	hdrLen := int64(binary.BigEndian.Uint32(prefix[4:]))
	if err := claim(hdrLen, "header"); err != nil {
		return err
	}
	hdr := make([]byte, hdrLen)
	if err := readFull(r, hdr, "header"); err != nil {
		return err
	}
	h := frameHeader{Msg: msg}
	if err := json.Unmarshal(hdr, &h); err != nil {
		return fmt.Errorf("cluster: decode frame header: %w", err)
	}
	planeBytes := int64(0)
	for _, n := range h.Planes {
		if err := claim(n, "plane"); err != nil {
			return err
		}
		planeBytes += n
	}
	for _, s := range h.Snaps {
		if s.Zone < 0 {
			return fmt.Errorf("cluster: frame snapshot for negative zone %d", s.Zone)
		}
		if err := claim(s.Len, "snapshot"); err != nil {
			return err
		}
	}
	if total != size {
		return fmt.Errorf("cluster: frame declares %d bytes, body has %d", total, size)
	}
	planes, snaps := frameBlobs(msg)
	if len(h.Planes) > 0 && planes == nil {
		return fmt.Errorf("cluster: frame carries planes, %T has none", msg)
	}
	if len(h.Snaps) > 0 && snaps == nil {
		return fmt.Errorf("cluster: frame carries snapshots, %T has none", msg)
	}
	if len(h.Planes) > 0 {
		// One backing array for all planes of the frame: they are
		// routed and dropped together, one step later.
		back := make([]byte, planeBytes)
		if err := readFull(r, back, "planes"); err != nil {
			return err
		}
		*planes = make([][]byte, len(h.Planes))
		for i, n := range h.Planes {
			(*planes)[i], back = back[:n:n], back[n:]
		}
	}
	if len(h.Snaps) > 0 {
		*snaps = make([]SnapshotWire, len(h.Snaps))
		for i, s := range h.Snaps {
			data := takeBuf(&reuse)
			if int64(cap(data)) < s.Len {
				data = make([]byte, s.Len)
			}
			data = data[:s.Len]
			if err := readFull(r, data, "snapshot"); err != nil {
				return err
			}
			(*snaps)[i] = SnapshotWire{Zone: s.Zone, Data: data}
		}
	}
	return nil
}

// readFull fills b from r, naming the frame part that came up short.
func readFull(r io.Reader, b []byte, what string) error {
	if _, err := io.ReadFull(r, b); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("cluster: frame truncated in its %s", what)
		}
		return fmt.Errorf("cluster: read frame %s: %w", what, err)
	}
	return nil
}
