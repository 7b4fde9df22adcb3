package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// schemaVersion bumps when Report's shape changes incompatibly.
// 2: every series gates (the gate, short and label fields are gone).
const schemaVersion = 2

// tolerance is the relative drift a Higher or Lower series may move in
// its bad direction before the gate fires: the kern_ ratios divide two
// wall-clock readings, so they carry the host's noise.
const tolerance = 0.20

// exactTolerance is the drift an Exact series may show — room for
// float formatting, none for a count or an allocation zero.
const exactTolerance = 1e-9

// Direction states which way a series is allowed to drift.
type Direction string

const (
	// Higher: larger is better; gate fires when the value drops more
	// than tolerance below baseline.
	Higher Direction = "higher"
	// Lower: smaller is better; gate fires when the value rises more
	// than tolerance above baseline.
	Lower Direction = "lower"
	// Exact: any drift beyond exactTolerance fires, either way.
	Exact Direction = "exact"
)

// Series is one measured or computed scalar. Every series gates.
type Series struct {
	Name   string    `json:"name"`
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Better Direction `json:"better"`
}

// Report is the whole dump. Go records the toolchain for later
// forensics; compare() reads only Series.
type Report struct {
	Schema int      `json:"schema"`
	Go     string   `json:"go"`
	Series []Series `json:"series"`
}

func loadReport(path string) (Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != schemaVersion {
		return Report{}, fmt.Errorf("%s: schema %d, this tool speaks %d", path, r.Schema, schemaVersion)
	}
	return r, nil
}

func writeReport(path string, r Report) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Regression describes one series outside tolerance.
type Regression struct {
	Name      string
	Base, New float64
	Drift     float64 // signed relative drift, (new-base)/|base|
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: baseline %.6g, now %.6g (%+.1f%%)", r.Name, r.Base, r.New, 100*r.Drift)
}

// compare gates the new report against the baseline. Series missing
// from the baseline pass (they are new in this PR); series present in
// the baseline but missing from the new report fail — a silently
// dropped measurement is itself a regression — and so does a value
// that is not finite, which no drift comparison would catch.
func compare(base, cur Report) []Regression {
	curBy := make(map[string]Series, len(cur.Series))
	for _, s := range cur.Series {
		curBy[s.Name] = s
	}

	var regs []Regression
	for _, b := range base.Series {
		c, ok := curBy[b.Name]
		if !ok {
			regs = append(regs, Regression{Name: b.Name + " (series dropped)", Base: b.Value, New: math.NaN(), Drift: math.NaN()})
			continue
		}
		drift := relDrift(b.Value, c.Value)
		bad := math.IsNaN(c.Value) || math.IsInf(c.Value, 0)
		switch b.Better {
		case Higher:
			bad = bad || drift < -tolerance
		case Lower:
			bad = bad || drift > tolerance
		default: // Exact
			bad = bad || math.Abs(drift) > exactTolerance
		}
		if bad {
			regs = append(regs, Regression{Name: b.Name, Base: b.Value, New: c.Value, Drift: drift})
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].Name < regs[j].Name })
	return regs
}

// relDrift is the signed relative change from base to cur, with a
// floor on the denominator so a zero baseline still compares sanely.
func relDrift(base, cur float64) float64 {
	d := math.Abs(base)
	if d < 1e-12 {
		d = 1e-12
	}
	return (cur - base) / d
}
