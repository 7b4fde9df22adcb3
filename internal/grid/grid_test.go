package grid

import (
	"testing"
	"testing/quick"
)

func TestPaperCasesPointCounts(t *testing.T) {
	// "The 1-million grid point test case consists of three zones with
	// dimensions of 15×75×70, 87×75×70, and 89×75×70."
	c1 := Paper1M()
	want1 := 15*75*70 + 87*75*70 + 89*75*70 // 1,002,750
	if got := c1.Points(); got != want1 {
		t.Errorf("Paper1M points = %d, want %d", got, want1)
	}
	if want1 < 1_000_000 || want1 > 1_010_000 {
		t.Errorf("Paper1M total %d not ≈ 1 million", want1)
	}
	if got := c1.MaxDim(); got != 89 {
		t.Errorf("Paper1M MaxDim = %d, want 89", got)
	}

	c59 := Paper59M()
	want59 := 29*450*350 + 173*450*350 + 175*450*350 // 59,377,500
	if got := c59.Points(); got != want59 {
		t.Errorf("Paper59M points = %d, want %d", got, want59)
	}
	if want59 < 59_000_000 || want59 > 59_500_000 {
		t.Errorf("Paper59M total %d not ≈ 59 million", want59)
	}
	if got := c59.MaxDim(); got != 450 {
		t.Errorf("Paper59M MaxDim = %d, want 450", got)
	}
}

func TestZoneIndexBijective(t *testing.T) {
	z := NewZone("z", 5, 7, 11)
	seen := make(map[int]bool, z.Points())
	for l := 0; l < z.LMax; l++ {
		for k := 0; k < z.KMax; k++ {
			for j := 0; j < z.JMax; j++ {
				idx := z.Index(j, k, l)
				if idx < 0 || idx >= z.Points() {
					t.Fatalf("Index(%d,%d,%d) = %d out of range", j, k, l, idx)
				}
				if seen[idx] {
					t.Fatalf("Index(%d,%d,%d) = %d duplicated", j, k, l, idx)
				}
				seen[idx] = true
			}
		}
	}
}

func TestZoneIndexJFastest(t *testing.T) {
	z := NewZone("z", 4, 5, 6)
	if z.Index(1, 0, 0)-z.Index(0, 0, 0) != 1 {
		t.Error("J is not unit stride")
	}
	if z.Index(0, 1, 0)-z.Index(0, 0, 0) != z.JMax {
		t.Error("K stride wrong")
	}
	if z.Index(0, 0, 1)-z.Index(0, 0, 0) != z.JMax*z.KMax {
		t.Error("L stride wrong")
	}
}

func TestNewZonePanicsOnTinyDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for dim < 3")
		}
	}()
	NewZone("bad", 2, 5, 5)
}

func TestScaled(t *testing.T) {
	c := Scaled(Paper1M(), 0.2)
	if len(c.Zones) != 3 {
		t.Fatalf("Scaled zones = %d, want 3", len(c.Zones))
	}
	// 0.2 × (15,75,70) → (3,15,14)
	z := c.Zones[0]
	if z.JMax != 3 || z.KMax != 15 || z.LMax != 14 {
		t.Errorf("scaled zone1 = %v, want 3×15×14", z)
	}
	// Shape preserved: zone3 remains the largest.
	if c.Zones[2].MaxDim() <= c.Zones[0].MaxDim() {
		t.Errorf("scaling lost zone-size ordering: %v", c.Zones)
	}
	// Minimum dimension clamp.
	tiny := Scaled(Paper1M(), 0.01)
	for _, z := range tiny.Zones {
		if z.JMax < 3 || z.KMax < 3 || z.LMax < 3 {
			t.Errorf("clamp failed: %v", z)
		}
	}
	for _, bad := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Scaled(%g) should panic", bad)
				}
			}()
			Scaled(Paper1M(), bad)
		}()
	}
}

func TestFieldRoundTrip(t *testing.T) {
	z := NewZone("z", 4, 5, 6)
	f := NewField(&z)
	f.Set(2, 3, 4, 42.5)
	if got := f.At(2, 3, 4); got != 42.5 {
		t.Errorf("At = %g, want 42.5", got)
	}
	if got := f.At(2, 3, 3); got != 0 {
		t.Errorf("neighbor contaminated: %g", got)
	}
}

func TestStateFieldLayouts(t *testing.T) {
	z := NewZone("z", 4, 5, 6)
	for _, layout := range []Layout{ComponentMajor, PointMajor} {
		s := NewStateField(&z, 5, layout)
		want := [5]float64{1, 2, 3, 4, 5}
		s.SetPoint(1, 2, 3, want[:])
		var got [5]float64
		s.Point(1, 2, 3, got[:])
		if got != want {
			t.Errorf("%v: Point round trip = %v, want %v", layout, got, want)
		}
		for c := 0; c < 5; c++ {
			if s.At(c, 1, 2, 3) != want[c] {
				t.Errorf("%v: At(%d) = %g, want %g", layout, c, s.At(c, 1, 2, 3), want[c])
			}
		}
		// Neighboring point untouched.
		s.Point(1, 2, 4, got[:])
		if got != [5]float64{} {
			t.Errorf("%v: neighbor contaminated: %v", layout, got)
		}
	}
}

func TestStateFieldLayoutStrides(t *testing.T) {
	z := NewZone("z", 4, 5, 6)
	cm := NewStateField(&z, 5, ComponentMajor)
	if cm.Idx(1, 0, 0, 0)-cm.Idx(0, 0, 0, 0) != z.Points() {
		t.Error("ComponentMajor component stride should be Points()")
	}
	pm := NewStateField(&z, 5, PointMajor)
	if pm.Idx(1, 0, 0, 0)-pm.Idx(0, 0, 0, 0) != 1 {
		t.Error("PointMajor component stride should be 1")
	}
	if pm.Idx(0, 1, 0, 0)-pm.Idx(0, 0, 0, 0) != 5 {
		t.Error("PointMajor point stride should be NC")
	}
}

func TestCopyFromConvertsLayouts(t *testing.T) {
	z := NewZone("z", 4, 4, 4)
	f := func(seed uint8) bool {
		a := NewStateField(&z, 5, ComponentMajor)
		for i := range a.Data {
			a.Data[i] = float64((int(seed)+i*31)%97) / 7
		}
		b := NewStateField(&z, 5, PointMajor)
		b.CopyFrom(&a)
		c := NewStateField(&z, 5, ComponentMajor)
		c.CopyFrom(&b)
		for i := range a.Data {
			if a.Data[i] != c.Data[i] {
				return false
			}
		}
		// Spot check semantic agreement.
		var pa, pb [5]float64
		a.Point(1, 2, 3, pa[:])
		b.Point(1, 2, 3, pb[:])
		return pa == pb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCopyFromShapeMismatchPanics(t *testing.T) {
	z1 := NewZone("a", 4, 4, 4)
	z2 := NewZone("b", 5, 4, 4)
	a := NewStateField(&z1, 5, PointMajor)
	b := NewStateField(&z2, 5, PointMajor)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on shape mismatch")
		}
	}()
	a.CopyFrom(&b)
}

func TestLayoutString(t *testing.T) {
	if ComponentMajor.String() != "component-major" || PointMajor.String() != "point-major" {
		t.Error("Layout.String wrong")
	}
	if Layout(7).String() != "Layout(7)" {
		t.Error("unknown layout string wrong")
	}
}

func TestSingleAndZoneString(t *testing.T) {
	c := Single(5, 6, 7)
	if c.Points() != 5*6*7 || len(c.Zones) != 1 {
		t.Errorf("Single wrong: %+v", c)
	}
	if got := c.Zones[0].String(); got != "zone1[5×6×7]" {
		t.Errorf("Zone.String = %q", got)
	}
}

func TestUnifySpacing(t *testing.T) {
	c := UnifySpacing(Paper1M())
	// zone3 (89×75×70) is the largest; its spacings become universal.
	ref := c.Zones[2]
	for _, z := range c.Zones {
		if z.DJ != ref.DJ || z.DK != ref.DK || z.DL != ref.DL {
			t.Errorf("zone %v spacing not unified", z)
		}
	}
	// Dimensions untouched.
	if c.Zones[0].JMax != 15 || c.Zones[1].JMax != 87 {
		t.Error("UnifySpacing changed dimensions")
	}
	// Original case unmodified.
	orig := Paper1M()
	if orig.Zones[0].DJ == orig.Zones[2].DJ {
		t.Error("test premise wrong: original zones already share spacing")
	}
	if UnifySpacing(Case{}).Zones != nil {
		t.Error("empty case should pass through")
	}
}

func TestStretchCoordsOneSided(t *testing.T) {
	x := StretchCoordsOneSided(17, 2)
	if x[0] != 0 || x[16] != 1 {
		t.Fatalf("endpoints not pinned: %g, %g", x[0], x[16])
	}
	for i := 1; i < len(x); i++ {
		if x[i] <= x[i-1] {
			t.Fatalf("coords not increasing at %d", i)
		}
	}
	// Clustered at the wall only: first gap well below last gap.
	first := x[1] - x[0]
	last := x[16] - x[15]
	if first >= last/3 {
		t.Errorf("one-sided clustering missing: first %g, last %g", first, last)
	}
	// beta = 0 uniform.
	u := StretchCoordsOneSided(5, 0)
	if u[1] != 0.25 {
		t.Errorf("beta=0 not uniform: %v", u)
	}
}

func TestStateFieldIdxBijective(t *testing.T) {
	// Property: Idx is a bijection from (component, point) to [0, NC*points)
	// in both layouts.
	f := func(seed uint8) bool {
		z := NewZone("z", int(seed%4)+3, int(seed%3)+3, int(seed%5)+3)
		for _, layout := range []Layout{ComponentMajor, PointMajor} {
			s := NewStateField(&z, 5, layout)
			size := s.NC * z.Points()
			seen := make([]bool, size)
			for l := 0; l < z.LMax; l++ {
				for k := 0; k < z.KMax; k++ {
					for j := 0; j < z.JMax; j++ {
						for c := 0; c < 5; c++ {
							idx := s.Idx(c, j, k, l)
							if idx < 0 || idx >= size || seen[idx] {
								return false
							}
							seen[idx] = true
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestNewStateFieldPanics(t *testing.T) {
	z := NewZone("z", 4, 4, 4)
	for _, tc := range []struct {
		nc     int
		layout Layout
	}{{0, PointMajor}, {0, ComponentMajor}, {3, PointMajor}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("nc = %d, %v should panic", tc.nc, tc.layout)
				}
			}()
			NewStateField(&z, tc.nc, tc.layout)
		}()
	}
}
