package f3d

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"slices"
)

// Solution checkpointing. Production CFD runs save and restart —
// the paper's 59-million-point case at 2.3 steps/hour could not have
// been run any other way. The format is a small self-describing binary,
// all big-endian: a header (magic, version, step count, zone count),
// then per zone its three dimensions and its AppendZoneState payload —
// the bits a cluster shard ships as a snapshot — and a CRC so a torn
// write is detected rather than silently restarted from garbage. Files
// are written and read one zone at a time, never whole.

const (
	checkpointMagic   = 0x46334443 // "F3DC"
	checkpointVersion = 2
)

// SaveCheckpoint writes the solver's solution (all zones' conserved
// fields plus the step count) to w.
func SaveCheckpoint(w io.Writer, s Solver, steps int) error {
	bw := bufio.NewWriter(w)
	crc := crc32.NewIEEE()
	out := io.MultiWriter(bw, crc)
	zones := s.Zones()
	header := []uint64{checkpointMagic, checkpointVersion, uint64(steps), uint64(len(zones))}
	if err := binary.Write(out, binary.BigEndian, header); err != nil {
		return fmt.Errorf("f3d: checkpoint header: %w", err)
	}
	var state []byte
	for zi, zs := range zones {
		z := zs.Zone
		if err := binary.Write(out, binary.BigEndian, []uint64{uint64(z.JMax), uint64(z.KMax), uint64(z.LMax)}); err != nil {
			return fmt.Errorf("f3d: checkpoint zone %d: %w", zi, err)
		}
		var err error
		if state, err = AppendZoneState(state[:0], s, zi); err != nil {
			return err
		}
		if _, err := out.Write(state); err != nil {
			return fmt.Errorf("f3d: checkpoint zone %d: %w", zi, err)
		}
	}
	// Trailing CRC (of everything before it), written directly.
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := binary.Write(w, binary.BigEndian, crc.Sum32()); err != nil {
		return fmt.Errorf("f3d: checkpoint crc: %w", err)
	}
	return nil
}

// LoadCheckpoint restores a checkpoint written by SaveCheckpoint into
// the solver, which must have been built for the same case (zone count
// and dimensions are verified). It returns the step count recorded at
// save time.
func LoadCheckpoint(r io.Reader, s Solver) (steps int, err error) {
	br := bufio.NewReader(r)
	crc := crc32.NewIEEE()
	in := io.TeeReader(br, crc)
	zones := s.Zones()
	var header [4]uint64 // magic, version, steps, zone count
	if err := binary.Read(in, binary.BigEndian, header[:]); err != nil {
		return 0, fmt.Errorf("f3d: checkpoint header: %w", err)
	}
	switch magic, version := header[0], header[1]; {
	case magic == bits.ReverseBytes64(checkpointMagic): // version 1 wrote its header little-endian
		return 0, fmt.Errorf("f3d: unsupported checkpoint version %d (little-endian header)", bits.ReverseBytes64(version))
	case magic != checkpointMagic:
		return 0, fmt.Errorf("f3d: not a checkpoint (magic %#x)", magic)
	case version != checkpointVersion:
		return 0, fmt.Errorf("f3d: unsupported checkpoint version %d", version)
	case header[2] > math.MaxInt:
		return 0, fmt.Errorf("f3d: checkpoint step count %d out of range", header[2])
	case header[3] != uint64(len(zones)):
		return 0, fmt.Errorf("f3d: checkpoint has %d zones, solver has %d", header[3], len(zones))
	}
	var state []byte
	for zi, zs := range zones {
		var dims [3]uint64
		if err := binary.Read(in, binary.BigEndian, dims[:]); err != nil {
			return 0, fmt.Errorf("f3d: checkpoint truncated: %w", err)
		}
		if z := zs.Zone; dims != [3]uint64{uint64(z.JMax), uint64(z.KMax), uint64(z.LMax)} {
			return 0, fmt.Errorf("f3d: checkpoint zone %d is %v, the solver's %v", zi, dims, z)
		}
		n := 8 * fieldValues(&zs.Q)
		state = slices.Grow(state[:0], n)[:n]
		if _, err := io.ReadFull(in, state); err != nil {
			return 0, fmt.Errorf("f3d: checkpoint truncated: %w", err)
		}
		if err := RestoreZoneState(s, zi, state); err != nil {
			return 0, err
		}
	}
	wantSum := crc.Sum32()
	var sum uint32
	if err := binary.Read(br, binary.BigEndian, &sum); err != nil {
		return 0, fmt.Errorf("f3d: checkpoint crc missing: %w", err)
	}
	if sum != wantSum {
		return 0, fmt.Errorf("f3d: checkpoint corrupt (crc %#x, want %#x)", sum, wantSum)
	}
	return int(header[2]), nil
}
