// Package grid provides the multi-zone 3-D structured grids the F3D
// reproduction runs on, including the exact zone decompositions of the
// paper's two test cases (1-million and 59-million grid points) and
// scaled replicas of the same shape for hosts where the full cases are
// impractical.
//
// Index convention follows the paper's Fortran examples: a zone has
// dimensions JMax × KMax × LMax with J the fastest-varying (unit-stride)
// index, matching `DIMENSION A(JMAX,KMAX,LMAX)` in Example 4. All
// storage is flat []float64 with explicit strides, the layout a tuned
// RISC code would use.
package grid

import (
	"fmt"
	"math"
)

// Zone is one block of a multi-zone structured grid: a JMax×KMax×LMax
// box of points with uniform spacing in each direction. The solver
// treats the first and last index in each direction as boundary points.
type Zone struct {
	Name             string
	JMax, KMax, LMax int
	// DJ, DK, DL are the grid spacings in the three index directions
	// (for stretched directions: the minimum local spacing).
	DJ, DK, DL float64
	// XJ, XK, XL optionally hold nonuniform coordinates along each
	// direction (see StretchedZone). nil means uniform spacing.
	XJ, XK, XL []float64
}

// NewZone constructs a zone with the given dimensions and unit spacing
// scaled so the zone spans [0,1] in each direction. Dimensions must be
// at least 3 (one interior point between two boundary points).
func NewZone(name string, jmax, kmax, lmax int) Zone {
	z := Zone{
		Name: name,
		JMax: jmax, KMax: kmax, LMax: lmax,
		DJ: 1 / float64(jmax-1),
		DK: 1 / float64(kmax-1),
		DL: 1 / float64(lmax-1),
	}
	if err := z.Validate(); err != nil {
		panic(err.Error())
	}
	return z
}

// Validate checks the rule every zone the solver runs on obeys: each
// dimension at least 3, each spacing finite and positive, and each
// coordinate array nil or one entry per point along its direction.
// NewZone and StretchedZone build only such zones; a zone decoded from
// outside the program need not be one.
func (z *Zone) Validate() error {
	dims := [3]int{z.JMax, z.KMax, z.LMax}
	if min(dims[0], dims[1], dims[2]) < 3 {
		return fmt.Errorf("grid: zone %q dims must be >= 3, got %d×%d×%d", z.Name, z.JMax, z.KMax, z.LMax)
	}
	for i, coords := range [3][]float64{z.XJ, z.XK, z.XL} {
		if h := [3]float64{z.DJ, z.DK, z.DL}[i]; !(h > 0 && h <= math.MaxFloat64) {
			return fmt.Errorf("grid: zone %q %c spacing %v must be finite and > 0", z.Name, "JKL"[i], h)
		}
		if coords != nil && len(coords) != dims[i] {
			return fmt.Errorf("grid: zone %q has %d %c coordinates for %d points", z.Name, len(coords), "JKL"[i], dims[i])
		}
	}
	return nil
}

// Points returns the number of grid points in the zone.
func (z *Zone) Points() int { return z.JMax * z.KMax * z.LMax }

// Index returns the flat index of point (j, k, l) in J-fastest order.
func (z *Zone) Index(j, k, l int) int {
	return (l*z.KMax+k)*z.JMax + j
}

// MaxDim returns the largest of the three dimensions — the paper's "M",
// the available loop-level parallelism of the zone's sweeps, which sets
// the stair-step plateau locations (§5: "With a maximum loop dimension
// of M, the available parallelism is roughly M").
func (z *Zone) MaxDim() int {
	m := z.JMax
	if z.KMax > m {
		m = z.KMax
	}
	if z.LMax > m {
		m = z.LMax
	}
	return m
}

// String implements fmt.Stringer.
func (z Zone) String() string {
	return fmt.Sprintf("%s[%d×%d×%d]", z.Name, z.JMax, z.KMax, z.LMax)
}

// Case is a named multi-zone grid, the unit the paper reports results
// for ("the 1-million grid point test case consists of three zones...").
type Case struct {
	Name  string
	Zones []Zone
}

// Points returns the total number of grid points across all zones.
func (c *Case) Points() int {
	n := 0
	for i := range c.Zones {
		n += c.Zones[i].Points()
	}
	return n
}

// MaxDim returns the largest single zone dimension in the case — the
// parallelism that bounds outer-loop scaling for the whole case.
func (c *Case) MaxDim() int {
	m := 0
	for i := range c.Zones {
		if d := c.Zones[i].MaxDim(); d > m {
			m = d
		}
	}
	return m
}

// Paper1M returns the paper's 1-million-grid-point test case: three
// zones of 15×75×70, 87×75×70 and 89×75×70 points (Table 4, note a).
func Paper1M() Case {
	return Case{
		Name: "1M",
		Zones: []Zone{
			NewZone("zone1", 15, 75, 70),
			NewZone("zone2", 87, 75, 70),
			NewZone("zone3", 89, 75, 70),
		},
	}
}

// Paper59M returns the paper's 59-million-grid-point test case: three
// zones of 29×450×350, 173×450×350 and 175×450×350 points (Table 4,
// note b).
func Paper59M() Case {
	return Case{
		Name: "59M",
		Zones: []Zone{
			NewZone("zone1", 29, 450, 350),
			NewZone("zone2", 173, 450, 350),
			NewZone("zone3", 175, 450, 350),
		},
	}
}

// Scaled returns a case with the same three-zone shape as the paper's
// cases but with every dimension multiplied by factor (minimum 3 points
// per dimension), for running the real solver at laptop scale. factor
// must be in (0, 1].
func Scaled(base Case, factor float64) Case {
	if factor <= 0 || factor > 1 {
		panic(fmt.Sprintf("grid: Scaled factor must be in (0,1], got %g", factor))
	}
	out := Case{Name: fmt.Sprintf("%s-x%.3g", base.Name, factor)}
	out.Zones = make([]Zone, len(base.Zones))
	scale := func(n int) int {
		s := int(float64(n)*factor + 0.5)
		if s < 3 {
			s = 3
		}
		return s
	}
	for i, z := range base.Zones {
		out.Zones[i] = NewZone(z.Name, scale(z.JMax), scale(z.KMax), scale(z.LMax))
	}
	return out
}

// UnifySpacing returns a copy of the case in which every zone uses the
// grid spacings of the largest zone. NewZone normalizes each zone to a
// unit box, which is right for independent zones but not for zones that
// tile one physical grid: J-stacked zonal coupling requires matching
// spacings across the interface.
func UnifySpacing(c Case) Case {
	if len(c.Zones) == 0 {
		return c
	}
	ref := 0
	for i := range c.Zones {
		if c.Zones[i].Points() > c.Zones[ref].Points() {
			ref = i
		}
	}
	out := Case{Name: c.Name, Zones: append([]Zone(nil), c.Zones...)}
	for i := range out.Zones {
		out.Zones[i].DJ = c.Zones[ref].DJ
		out.Zones[i].DK = c.Zones[ref].DK
		out.Zones[i].DL = c.Zones[ref].DL
	}
	return out
}

// Single returns a one-zone case, convenient for unit tests and the
// examples.
func Single(jmax, kmax, lmax int) Case {
	return Case{
		Name:  fmt.Sprintf("single-%dx%dx%d", jmax, kmax, lmax),
		Zones: []Zone{NewZone("zone1", jmax, kmax, lmax)},
	}
}
