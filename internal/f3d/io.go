package f3d

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/euler"
)

// Solution checkpointing. Production CFD runs save and restart —
// the paper's 59-million-point case at 2.3 steps/hour could not have
// been run any other way. The format is a small self-describing binary:
// header, per-zone dimensions, conserved fields in point-major order,
// and a CRC so a torn write is detected rather than silently restarted
// from garbage.

const (
	checkpointMagic   = 0x46334443 // "F3DC"
	checkpointVersion = 1
)

// SaveCheckpoint writes the solver's solution (all zones' conserved
// fields plus the step count) to w.
func SaveCheckpoint(w io.Writer, s Solver, steps int) error {
	bw := bufio.NewWriter(w)
	crc := crc32.NewIEEE()
	out := io.MultiWriter(bw, crc)

	writeU64 := func(v uint64) error {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		_, err := out.Write(buf[:])
		return err
	}
	if err := writeU64(checkpointMagic); err != nil {
		return fmt.Errorf("f3d: checkpoint header: %w", err)
	}
	if err := writeU64(checkpointVersion); err != nil {
		return err
	}
	if err := writeU64(uint64(steps)); err != nil {
		return err
	}
	zones := s.Zones()
	if err := writeU64(uint64(len(zones))); err != nil {
		return err
	}
	var buf [euler.NC]float64
	for _, zs := range zones {
		z := zs.Zone
		for _, d := range []int{z.JMax, z.KMax, z.LMax} {
			if err := writeU64(uint64(d)); err != nil {
				return err
			}
		}
		for l := 0; l < z.LMax; l++ {
			for k := 0; k < z.KMax; k++ {
				for j := 0; j < z.JMax; j++ {
					zs.Q.Point(j, k, l, buf[:])
					for c := 0; c < euler.NC; c++ {
						if err := writeU64(math.Float64bits(buf[c])); err != nil {
							return err
						}
					}
				}
			}
		}
	}
	// Trailing CRC (of everything before it), written directly.
	sum := crc.Sum32()
	if err := bw.Flush(); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], sum)
	if _, err := w.Write(tail[:]); err != nil {
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

	readU64 := func() (uint64, error) {
		var buf [8]byte
		if _, err := io.ReadFull(in, buf[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(buf[:]), nil
	}
	magic, err := readU64()
	if err != nil {
		return 0, fmt.Errorf("f3d: checkpoint header: %w", err)
	}
	if magic != checkpointMagic {
		return 0, fmt.Errorf("f3d: not a checkpoint (magic %#x)", magic)
	}
	version, err := readU64()
	if err != nil {
		return 0, err
	}
	if version != checkpointVersion {
		return 0, fmt.Errorf("f3d: unsupported checkpoint version %d", version)
	}
	stepsU, err := readU64()
	if err != nil {
		return 0, err
	}
	if stepsU > math.MaxInt {
		return 0, fmt.Errorf("f3d: checkpoint step count %d out of range", stepsU)
	}
	nz, err := readU64()
	if err != nil {
		return 0, err
	}
	zones := s.Zones()
	if int(nz) != len(zones) {
		return 0, fmt.Errorf("f3d: checkpoint has %d zones, solver has %d", nz, len(zones))
	}
	var buf [euler.NC]float64
	for _, zs := range zones {
		z := zs.Zone
		for _, want := range []int{z.JMax, z.KMax, z.LMax} {
			d, err := readU64()
			if err != nil {
				return 0, err
			}
			if int(d) != want {
				return 0, fmt.Errorf("f3d: checkpoint zone dims mismatch (%d vs %d)", d, want)
			}
		}
		for l := 0; l < z.LMax; l++ {
			for k := 0; k < z.KMax; k++ {
				for j := 0; j < z.JMax; j++ {
					for c := 0; c < euler.NC; c++ {
						bits, err := readU64()
						if err != nil {
							return 0, fmt.Errorf("f3d: checkpoint truncated: %w", err)
						}
						buf[c] = math.Float64frombits(bits)
					}
					zs.Q.SetPoint(j, k, l, buf[:])
				}
			}
		}
	}
	wantSum := crc.Sum32()
	var tail [4]byte
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		return 0, fmt.Errorf("f3d: checkpoint crc missing: %w", err)
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != wantSum {
		return 0, fmt.Errorf("f3d: checkpoint corrupt (crc %#x, want %#x)", got, wantSum)
	}
	return int(stepsU), nil
}
