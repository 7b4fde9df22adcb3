package sched

import (
	"reflect"
	"testing"

	"repro/internal/model"
)

// TestPlateauGrantNeverOffPlateau is the allocator's core guarantee:
// for every (m, avail), the grant is either 0 (no processors), 1, or a
// processor count at the left edge of a stair-step — adding the grant's
// last processor strictly reduced ceil(m/P). No job is ever granted a
// P where ceil(M/P) == ceil(M/(P-1)).
func TestPlateauGrantNeverOffPlateau(t *testing.T) {
	ceil := func(a, b int) int { return (a + b - 1) / b }
	for m := 1; m <= 200; m++ {
		for avail := 0; avail <= 260; avail++ {
			g := PlateauGrant(m, avail)
			if avail == 0 {
				if g != 0 {
					t.Fatalf("PlateauGrant(%d, 0) = %d, want 0", m, g)
				}
				continue
			}
			if g < 1 || g > m || g > avail {
				t.Fatalf("PlateauGrant(%d, %d) = %d out of range", m, avail, g)
			}
			if g > 1 && ceil(m, g) == ceil(m, g-1) {
				t.Fatalf("PlateauGrant(%d, %d) = %d is off-plateau: ceil(m/P)=%d == ceil(m/(P-1))",
					m, avail, g, ceil(m, g))
			}
		}
	}
}

// TestPlateauGrantLosesNoSpeedup verifies the grant delivers exactly
// the speedup of the naive grant min(m, avail): rounding down to the
// plateau costs nothing by the paper's model.
func TestPlateauGrantLosesNoSpeedup(t *testing.T) {
	for m := 1; m <= 150; m++ {
		for avail := 1; avail <= 200; avail++ {
			g := PlateauGrant(m, avail)
			naive := m
			if avail < naive {
				naive = avail
			}
			if got, want := model.StairStepSpeedup(m, g), model.StairStepSpeedup(m, naive); got != want {
				t.Fatalf("PlateauGrant(%d, %d) = %d: speedup %g != naive grant %d speedup %g",
					m, avail, g, got, naive, want)
			}
		}
	}
}

// TestPlateauGrantIsMemberOfPlateauProcs cross-checks the allocator
// against the model package's plateau enumeration.
func TestPlateauGrantIsMemberOfPlateauProcs(t *testing.T) {
	for m := 1; m <= 120; m++ {
		plateaus := make(map[int]bool)
		for _, p := range model.PlateauProcs(m, m) {
			plateaus[p] = true
		}
		for avail := 1; avail <= m+10; avail++ {
			if g := PlateauGrant(m, avail); !plateaus[g] {
				t.Fatalf("PlateauGrant(%d, %d) = %d is not in PlateauProcs %v",
					m, avail, g, model.PlateauProcs(m, m))
			}
		}
	}
}

// TestPlateauGrantTable3 pins the paper's N = 15 example: the grants
// for avail = 1..15 follow Table 3's plateau left edges.
func TestPlateauGrantTable3(t *testing.T) {
	want := []int{1, 2, 3, 4, 5, 5, 5, 8, 8, 8, 8, 8, 8, 8, 15}
	got := make([]int, 15)
	for avail := 1; avail <= 15; avail++ {
		got[avail-1] = PlateauGrant(15, avail)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PlateauGrant(15, 1..15) = %v, want %v", got, want)
	}
}

func TestNextLowerPlateau(t *testing.T) {
	cases := []struct{ m, granted, want int }{
		{15, 15, 8},
		{15, 8, 5},
		{15, 5, 4},
		{15, 2, 1},
		{15, 1, 0}, // nothing below 1
		{1, 1, 0},
		{7, 4, 3},
	}
	for _, c := range cases {
		if got := NextLowerPlateau(c.m, c.granted); got != c.want {
			t.Errorf("NextLowerPlateau(%d, %d) = %d, want %d", c.m, c.granted, got, c.want)
		}
	}
}

func TestPlateauGrantPanicsOnBadM(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PlateauGrant(0, 4) should panic")
		}
	}()
	PlateauGrant(0, 4)
}
