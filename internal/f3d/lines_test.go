package f3d

import (
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

// TestLoadStoreLine pins the line layer against per-point access: for
// every line of zones with three distinct dimensions, on all three axes
// and in both layouts, loadLine must return exactly what Point returns,
// and storeLineInterior must write exactly points 1..n-2 of that line —
// the two boundary points and every other line stay untouched. A wrong
// base or stride in the PointMajor fast path fails here even on cases
// symmetric enough to leave the solver's residual checks green.
func TestLoadStoreLine(t *testing.T) {
	for _, dims := range [][3]int{{6, 5, 4}, {3, 7, 5}, {4, 3, 9}} {
		z := grid.NewZone("z", dims[0], dims[1], dims[2])
		for _, layout := range []grid.Layout{grid.ComponentMajor, grid.PointMajor} {
			for _, ax := range []euler.Axis{euler.X, euler.Y, euler.Z} {
				f := grid.NewStateField(&z, euler.NC, layout)
				for i := range f.Data {
					f.Data[i] = float64(i + 1)
				}
				n := lineLen(&z, ax)
				buf := make([]linalg.Vec5, n)
				outer, inner := crossDims(&z, ax)
				for o := 0; o < outer; o++ {
					for in := 0; in < inner; in++ {
						a, b := in, o
						loadLine(&f, ax, a, b, buf, n)
						var want [euler.NC]float64
						for i := 0; i < n; i++ {
							j, k, l := lineIndex(ax, i, a, b)
							f.Point(j, k, l, want[:])
							if [euler.NC]float64(buf[i]) != want {
								t.Fatalf("%v %v %v line (%d,%d): point %d = %v, want %v",
									dims, layout, ax, a, b, i, buf[i], want)
							}
						}

						// Store the negated line; the expected field is the
						// original with the interior points negated one by one.
						wantData := append([]float64(nil), f.Data...)
						wantField := f
						wantField.Data = wantData
						for i := range buf {
							for c := range buf[i] {
								buf[i][c] = -buf[i][c]
							}
						}
						for i := 1; i <= n-2; i++ {
							j, k, l := lineIndex(ax, i, a, b)
							wantField.SetPoint(j, k, l, buf[i][:])
						}
						storeLineInterior(&f, ax, a, b, buf, n)
						for i := range f.Data {
							if f.Data[i] != wantData[i] {
								t.Fatalf("%v %v %v line (%d,%d): Data[%d] = %v after store, want %v",
									dims, layout, ax, a, b, i, f.Data[i], wantData[i])
							}
						}
						// Restore for the next line.
						for i := range f.Data {
							f.Data[i] = float64(i + 1)
						}
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
