package main

import (
	"math"
	"path/filepath"
	"testing"
)

func mkReport(series ...Series) Report {
	return Report{Schema: schemaVersion, Go: "gotest", Series: series}
}

func TestCompareDirections(t *testing.T) {
	base := mkReport(
		Series{Name: "up", Value: 100, Better: Higher},
		Series{Name: "down", Value: 100, Better: Lower},
		Series{Name: "pin", Value: 12, Better: Exact},
	)
	cases := []struct {
		name string
		cur  []Series
		want int
	}{
		{"all identical", []Series{
			{Name: "up", Value: 100}, {Name: "down", Value: 100}, {Name: "pin", Value: 12},
		}, 0},
		{"within tolerance", []Series{
			{Name: "up", Value: 85}, {Name: "down", Value: 115}, {Name: "pin", Value: 12},
		}, 0},
		{"good directions never fire", []Series{
			{Name: "up", Value: 300}, {Name: "down", Value: 1}, {Name: "pin", Value: 12},
		}, 0},
		{"higher dropped too far", []Series{
			{Name: "up", Value: 70}, {Name: "down", Value: 100}, {Name: "pin", Value: 12},
		}, 1},
		{"lower rose too far", []Series{
			{Name: "up", Value: 100}, {Name: "down", Value: 130}, {Name: "pin", Value: 12},
		}, 1},
		{"exact drifted either way", []Series{
			{Name: "up", Value: 100}, {Name: "down", Value: 100}, {Name: "pin", Value: 8},
		}, 1},
		// A count is exact: 12 -> 13 is +8 %, inside the ratios'
		// tolerance and still a regression.
		{"exact means exact", []Series{
			{Name: "up", Value: 100}, {Name: "down", Value: 100}, {Name: "pin", Value: 13},
		}, 1},
		// NaN compares false with everything and +Inf looks like an
		// improvement to a Higher series; neither is a measurement.
		{"non-finite values fail", []Series{
			{Name: "up", Value: math.Inf(1)}, {Name: "down", Value: math.NaN()}, {Name: "pin", Value: math.NaN()},
		}, 3},
		{"dropped gated series fails", []Series{
			{Name: "up", Value: 100}, {Name: "down", Value: 100},
		}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if regs := compare(base, mkReport(tc.cur...)); len(regs) != tc.want {
				t.Errorf("got %d regressions %v, want %d", len(regs), regs, tc.want)
			}
		})
	}
}

func TestCompareNewSeriesPass(t *testing.T) {
	base := mkReport(Series{Name: "old", Value: 1, Better: Exact})
	cur := mkReport(
		Series{Name: "old", Value: 1, Better: Exact},
		Series{Name: "brand-new", Value: 42, Better: Exact},
	)
	if regs := compare(base, cur); len(regs) != 0 {
		t.Errorf("new series should not regress: %v", regs)
	}
}

func TestRelDriftZeroBaseline(t *testing.T) {
	if d := relDrift(0, 0); d != 0 {
		t.Errorf("relDrift(0,0) = %v", d)
	}
	if d := relDrift(0, 1); math.IsInf(d, 0) || math.IsNaN(d) {
		t.Errorf("relDrift(0,1) = %v, want finite", d)
	}
	// An allocation zero that becomes one allocation is a regression.
	base := mkReport(Series{Name: "allocs", Value: 0, Better: Exact})
	if regs := compare(base, mkReport(Series{Name: "allocs", Value: 1})); len(regs) != 1 {
		t.Errorf("0 -> 1 on an exact series: got %v, want one regression", regs)
	}
}

func TestReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	want := mkReport(
		Series{Name: "a", Value: 1.5, Unit: "x", Better: Higher},
		Series{Name: "b", Value: 2, Unit: "syncs/op", Better: Exact},
	)
	if err := writeReport(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := loadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Series) != 2 || got.Series[0] != want.Series[0] || got.Series[1] != want.Series[1] {
		t.Errorf("round trip: got %+v, want %+v", got, want)
	}
}

func TestLoadReportRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	r := mkReport()
	r.Schema = schemaVersion + 1
	if err := writeReport(path, r); err != nil {
		t.Fatal(err)
	}
	if _, err := loadReport(path); err == nil {
		t.Error("loadReport accepted a future schema")
	}
}

// TestBaselineMatchesSeriesTable fails when bench_baseline.json and the
// series table disagree on a name, unit or direction — without running
// a measurement, so a dropped or renamed series fails `go test ./...`
// and not only the CI bench job.
func TestBaselineMatchesSeriesTable(t *testing.T) {
	base, err := loadReport(filepath.Join("..", "..", "bench_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	type identity struct {
		unit   string
		better Direction
	}
	inTable := make(map[string]identity, len(seriesTable))
	for _, d := range seriesTable {
		if _, dup := inTable[d.Name]; dup {
			t.Errorf("series table lists %s twice", d.Name)
		}
		inTable[d.Name] = identity{d.Unit, d.Better}
	}
	for _, s := range base.Series {
		want, ok := inTable[s.Name]
		if !ok {
			t.Errorf("baseline series %s is not in the series table", s.Name)
			continue
		}
		if got := (identity{s.Unit, s.Better}); got != want {
			t.Errorf("%s: baseline says %+v, series table %+v", s.Name, got, want)
		}
		delete(inTable, s.Name)
	}
	for name := range inTable {
		t.Errorf("series %s has no baseline value: re-baseline (see cmd/benchdump/main.go)", name)
	}
}

// TestSuiteDeterministicSeries evaluates the real table and checks the
// deterministic rows — the sync structure of Examples 1-3 and the
// allocation zeros — against the paper's counts, and that every ratio
// is a finite positive number.
func TestSuiteDeterministicSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the timed ratios")
	}
	f := newFixtures()
	defer f.close()
	want := map[string]float64{
		"example1_inner_syncs_op":         64,
		"example1_outer_syncs_op":         1,
		"example2_separate_syncs_op":      2,
		"example2_merged_syncs_op":        1,
		"example3_child_syncs_op":         256,
		"example3_hoisted_syncs_op":       1,
		"kern_tridiag_batch5_allocs_op":   0,
		"kern_pentadiag_batch5_allocs_op": 0,
		"kern_planar_tuned_allocs_op":     0,
	}
	for _, s := range runSeries(f, Report{}, t.Logf) {
		if v, ok := want[s.Name]; ok {
			if s.Value != v || s.Better != Exact {
				t.Errorf("%s = %v (%s), want exactly %v", s.Name, s.Value, s.Better, v)
			}
			delete(want, s.Name)
		} else if !(s.Value > 0) || math.IsInf(s.Value, 0) || s.Better != Higher {
			t.Errorf("%s = %v (%s), want a finite positive ratio gated higher", s.Name, s.Value, s.Better)
		}
	}
	for name := range want {
		t.Errorf("suite missing series %s", name)
	}
}
