package grid

import (
	"fmt"

	"repro/internal/linalg"
)

// Layout selects the memory layout of multi-component fields. The
// choice is one of the paper's serial-tuning levers ("reordering of
// loops and/or array indices", §4): the original vector code keeps each
// conserved variable in its own plane-friendly array, while the
// cache-tuned code interleaves the five components of each point so one
// cache line holds a whole state vector.
type Layout int

const (
	// ComponentMajor stores all points of component 0, then all points
	// of component 1, ... — the classic Fortran common-block layout of
	// vector codes (Q(J,K,L,N) with N slowest... i.e. separate arrays).
	ComponentMajor Layout = iota
	// PointMajor stores the NC components of point 0, then point 1, ...
	// — the cache-friendly layout of the tuned code. A point-major field
	// holds whole linalg.Vec5 state vectors, so its NC is 5.
	PointMajor
)

// String implements fmt.Stringer.
func (l Layout) String() string {
	if names := [...]string{"component-major", "point-major"}; l >= 0 && int(l) < len(names) {
		return names[l]
	}
	return fmt.Sprintf("Layout(%d)", int(l))
}

// Field is a scalar field on a zone, stored flat in J-fastest order.
type Field struct {
	Zone *Zone
	Data []float64
}

// NewField allocates a zero-filled scalar field on z.
func NewField(z *Zone) Field {
	return Field{Zone: z, Data: make([]float64, z.Points())}
}

// At returns the value at (j, k, l).
func (f *Field) At(j, k, l int) float64 { return f.Data[f.Zone.Index(j, k, l)] }

// Set stores v at (j, k, l).
func (f *Field) Set(j, k, l int, v float64) { f.Data[f.Zone.Index(j, k, l)] = v }

// StateField is an NC-component field (NC = 5 for the conserved
// variables of 3-D compressible flow) with a selectable Layout. Exactly
// one of Data and Vec holds its values, by layout.
type StateField struct {
	Zone   *Zone
	NC     int
	Layout Layout
	// Data holds a ComponentMajor field: component c of point p at
	// c·Points()+p.
	Data []float64
	// Vec holds a PointMajor field, one state vector per point in
	// Zone.Index order: a J line is a contiguous run of it, which the
	// solver's kernels read and write in place.
	Vec []linalg.Vec5
}

// NewStateField allocates a zero-filled nc-component field on z. A
// PointMajor field must have nc = 5.
func NewStateField(z *Zone, nc int, layout Layout) StateField {
	if nc < 1 || layout == PointMajor && nc != linalg.BlockSize {
		panic(fmt.Sprintf("grid: NewStateField nc = %d for a %v field", nc, layout))
	}
	s := StateField{Zone: z, NC: nc, Layout: layout}
	if layout == PointMajor {
		s.Vec = make([]linalg.Vec5, z.Points())
	} else {
		s.Data = make([]float64, nc*z.Points())
	}
	return s
}

// Idx returns the offset of component c at point (j, k, l) in the
// field's storage order (for PointMajor, Vec read as one flat array).
func (s *StateField) Idx(c, j, k, l int) int {
	p := s.Zone.Index(j, k, l)
	if s.Layout == ComponentMajor {
		return c*s.Zone.Points() + p
	}
	return p*s.NC + c
}

// ref returns the address of component c at (j, k, l).
func (s *StateField) ref(c, j, k, l int) *float64 {
	if s.Layout == PointMajor {
		return &s.Vec[s.Zone.Index(j, k, l)][c]
	}
	return &s.Data[s.Idx(c, j, k, l)]
}

// At returns component c at (j, k, l).
func (s *StateField) At(c, j, k, l int) float64 { return *s.ref(c, j, k, l) }

// Set stores v into component c at (j, k, l).
func (s *StateField) Set(c, j, k, l int, v float64) { *s.ref(c, j, k, l) = v }

// Point loads the NC components at (j, k, l) into dst (len >= NC).
func (s *StateField) Point(j, k, l int, dst []float64) {
	if s.Layout == PointMajor {
		copy(dst[:s.NC], s.Vec[s.Zone.Index(j, k, l)][:])
		return
	}
	p := s.Zone.Index(j, k, l)
	stride := s.Zone.Points()
	for c := 0; c < s.NC; c++ {
		dst[c] = s.Data[c*stride+p]
	}
}

// SetPoint stores src (len >= NC) into the components at (j, k, l).
func (s *StateField) SetPoint(j, k, l int, src []float64) {
	if s.Layout == PointMajor {
		copy(s.Vec[s.Zone.Index(j, k, l)][:], src[:s.NC])
		return
	}
	p := s.Zone.Index(j, k, l)
	stride := s.Zone.Points()
	for c := 0; c < s.NC; c++ {
		s.Data[c*stride+p] = src[c]
	}
}

// CopyFrom copies the values of o (which must have the same zone
// dimensions and component count, but may use a different layout) into
// s, converting layouts as needed.
func (s *StateField) CopyFrom(o *StateField) {
	if s.Zone.Points() != o.Zone.Points() || s.NC != o.NC {
		panic("grid: CopyFrom shape mismatch")
	}
	if s.Layout == o.Layout {
		copy(s.Data, o.Data)
		copy(s.Vec, o.Vec)
		return
	}
	pts := s.Zone.Points()
	// Exactly one of the two is ComponentMajor.
	cm, pm := s, o
	toPM := false
	if s.Layout == PointMajor {
		cm, pm = o, s
		toPM = true
	}
	for p := range pm.Vec {
		for c := range pm.Vec[p] {
			if toPM {
				pm.Vec[p][c] = cm.Data[c*pts+p]
			} else {
				cm.Data[c*pts+p] = pm.Vec[p][c]
			}
		}
	}
}
