package f3d

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/euler"
	"repro/internal/grid"
	"repro/internal/linalg"
)

func TestLineEnumerationCoversZone(t *testing.T) {
	// For each axis, iterating crossDims × lineLen must visit every
	// point of the zone exactly once.
	f := func(ju, ku, lu uint8) bool {
		z := grid.NewZone("z", int(ju%8)+3, int(ku%8)+3, int(lu%8)+3)
		for _, ax := range []euler.Axis{euler.X, euler.Y, euler.Z} {
			seen := make([]int, z.Points())
			outer, inner := crossDims(&z, ax)
			n := lineLen(&z, ax)
			for o := 0; o < outer; o++ {
				for in := 0; in < inner; in++ {
					a, b := in, o
					for i := 0; i < n; i++ {
						j, k, l := lineIndex(ax, i, a, b)
						seen[z.Index(j, k, l)]++
					}
				}
			}
			for _, c := range seen {
				if c != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// eachPoint calls fn for every (j, k, l) of z in storage order.
func eachPoint(z *grid.Zone, fn func(j, k, l int)) {
	for l := 0; l < z.LMax; l++ {
		for k := 0; k < z.KMax; k++ {
			for j := 0; j < z.JMax; j++ {
				fn(j, k, l)
			}
		}
	}
}

// fieldsBitEqual fails the test at the first value of got that differs
// from want's.
func fieldsBitEqual(t *testing.T, name string, got, want *grid.StateField) {
	t.Helper()
	eachPoint(got.Zone, func(j, k, l int) {
		for c := 0; c < euler.NC; c++ {
			if g, w := got.At(c, j, k, l), want.At(c, j, k, l); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: (%d,%d,%d)[%d] = %v, want %v", name, j, k, l, c, g, w)
			}
		}
	})
}

// TestLoadStoreLine pins the line layer against per-point access: for
// every line of zones with three distinct dimensions, on all three axes
// and in both layouts, loadLine must return exactly what Point returns,
// and storeLineInterior must write exactly points 1..n-2 of that line —
// the two boundary points and every other line stay untouched. On a
// point-major field addLineInterior must add into exactly those points
// and report their largest |Δ|. A wrong base or stride fails here even on
// cases symmetric enough to leave the solver's residual checks green.
func TestLoadStoreLine(t *testing.T) {
	for _, dims := range [][3]int{{6, 5, 4}, {3, 7, 5}, {4, 3, 9}} {
		z := grid.NewZone("z", dims[0], dims[1], dims[2])
		for _, layout := range []grid.Layout{grid.ComponentMajor, grid.PointMajor} {
			for _, ax := range []euler.Axis{euler.X, euler.Y, euler.Z} {
				f := grid.NewStateField(&z, euler.NC, layout)
				fill := func() {
					eachPoint(&z, func(j, k, l int) {
						for c := 0; c < euler.NC; c++ {
							f.Set(c, j, k, l, float64(f.Idx(c, j, k, l)+1))
						}
					})
				}
				fill()
				n := lineLen(&z, ax)
				buf := make([]linalg.Vec5, n)
				outer, inner := crossDims(&z, ax)
				for o := 0; o < outer; o++ {
					for in := 0; in < inner; in++ {
						a, b := in, o
						name := fmt.Sprintf("%v %v %v line (%d,%d)", dims, layout, ax, a, b)
						loadLine(&f, ax, a, b, buf, n)
						var want [euler.NC]float64
						for i := 0; i < n; i++ {
							j, k, l := lineIndex(ax, i, a, b)
							f.Point(j, k, l, want[:])
							if [euler.NC]float64(buf[i]) != want {
								t.Fatalf("%s: point %d = %v, want %v", name, i, buf[i], want)
							}
						}

						// Store the negated line; the expected field is the
						// original with the interior points negated one by one.
						wantField := grid.NewStateField(&z, euler.NC, layout)
						wantField.CopyFrom(&f)
						for i := range buf {
							for c := range buf[i] {
								buf[i][c] = -buf[i][c] - float64(i)
							}
						}
						for i := 1; i <= n-2; i++ {
							j, k, l := lineIndex(ax, i, a, b)
							wantField.SetPoint(j, k, l, buf[i][:])
						}
						storeLineInterior(&f, ax, a, b, buf, n)
						fieldsBitEqual(t, name+" after store", &f, &wantField)

						if layout == grid.PointMajor {
							// Add the stored line again: only interior points
							// gain it, and the reported max |Δ| covers them all
							// on top of the running maximum passed in.
							m := 0.0
							for i := 1; i <= n-2; i++ {
								j, k, l := lineIndex(ax, i, a, b)
								for c := 0; c < euler.NC; c++ {
									wantField.Set(c, j, k, l, wantField.At(c, j, k, l)+buf[i][c])
									m = max(m, math.Abs(buf[i][c]))
								}
							}
							if got := addLineInterior(&f, ax, a, b, buf, n, 0.5); got != max(m, 0.5) {
								t.Fatalf("%s: addLineInterior max |Δ| = %v, want %v", name, got, max(m, 0.5))
							}
							fieldsBitEqual(t, name+" after add", &f, &wantField)
						}
						fill()
					}
				}
			}
		}
	}
}

// TestLineJInPlace: the J line lineJ hands the kernels is the field's
// own storage — every point of q, s and r is the address of that point
// in Q, the point records and R — and a zone without point records gets
// s = nil.
func TestLineJInPlace(t *testing.T) {
	z := grid.NewZone("z", 6, 5, 4)
	for _, points := range []bool{false, true} {
		zs := newZoneState(&z, grid.PointMajor, points)
		for l := 0; l < z.LMax; l++ {
			for k := 0; k < z.KMax; k++ {
				q, s, r := zs.lineJ(k, l)
				if len(q) != z.JMax || len(r) != z.JMax || (s == nil) == points {
					t.Fatalf("points=%v line (%d,%d): len q %d, len r %d, s nil %v", points, k, l, len(q), len(r), s == nil)
				}
				for j := 0; j < z.JMax; j++ {
					p := z.Index(j, k, l)
					if &q[j] != &zs.Q.Vec[p] || &r[j] != &zs.R.Vec[p] || points && &s[j] != &zs.pts[p] {
						t.Fatalf("points=%v line (%d,%d): point %d is not the field's point (%d,%d,%d)", points, k, l, j, j, k, l)
					}
				}
			}
		}
	}
}

func TestLineHelpersPanicOnBadAxis(t *testing.T) {
	z := grid.NewZone("z", 4, 4, 4)
	bad := euler.Axis(7)
	for name, fn := range map[string]func(){
		"lineLen":   func() { lineLen(&z, bad) },
		"lineIndex": func() { lineIndex(bad, 0, 0, 0) },
		"crossDims": func() { crossDims(&z, bad) },
		"spacing":   func() { spacing(&z, bad) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestStepProfileForStructure(t *testing.T) {
	c := grid.Paper1M()
	full := StepProfileFor(c, DefaultShape())
	// 4 parallel classes per zone with BC serial.
	if got, want := len(full.Loops), 4*len(c.Zones); got != want {
		t.Fatalf("loop classes = %d, want %d", got, want)
	}
	if full.SerialCycles <= 0 {
		t.Error("BC+residual serial work missing")
	}
	// All-serial profile folds everything into SerialCycles.
	serial := StepProfileFor(c, StepShape{})
	if len(serial.Loops) != 0 {
		t.Errorf("serial profile has %d loop classes", len(serial.Loops))
	}
	if serial.TotalCycles() != full.TotalCycles() {
		t.Errorf("total work changed with phase selection: %g vs %g",
			serial.TotalCycles(), full.TotalCycles())
	}
	// Parallelism of the sweep-jk classes is the zone's interior L
	// count; rhs-l and sweep-l use interior K.
	for _, lc := range full.Loops {
		switch {
		case lc.Parallelism <= 0:
			t.Errorf("class %s has no parallelism", lc.Name)
		case lc.SyncEvents != 1:
			t.Errorf("class %s has %d sync events, want 1", lc.Name, lc.SyncEvents)
		}
	}
	// Enabling BC moves its work out of SerialCycles.
	withBC := DefaultShape()
	withBC.BC = true
	bc := StepProfileFor(c, withBC)
	if bc.SerialCycles >= full.SerialCycles {
		t.Error("parallelizing BC did not reduce serial work")
	}
}

func TestStepProfileF3DStructure(t *testing.T) {
	c := grid.Paper59M()
	sp := StepProfileF3D(c, 4700, 0.004)
	if got, want := len(sp.Loops), 4*len(c.Zones); got != want {
		t.Fatalf("loop classes = %d, want %d", got, want)
	}
	if got, want := sp.TotalCycles(), 4700.0*float64(c.Points()); got != want {
		t.Errorf("total work = %g, want %g", got, want)
	}
	// The implicit classes carry J-limited parallelism.
	seen := map[int]bool{}
	for _, lc := range sp.Loops {
		seen[lc.Parallelism] = true
	}
	for _, j := range []int{29, 173, 175} {
		if !seen[j] {
			t.Errorf("no loop class with J parallelism %d", j)
		}
	}
	for name, fn := range map[string]func(){
		"workPerPoint": func() { StepProfileF3D(c, 0, 0.1) },
		"serialFrac":   func() { StepProfileF3D(c, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
