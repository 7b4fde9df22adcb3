package analyze

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestWriteSpeedscope(t *testing.T) {
	events := StairStepTrace("zone", 15, []int{1, 5, 8}, time.Millisecond, 100*time.Microsecond, base)
	events = append(events, seqTrace(barrierRegionEvents("mix", base.Add(time.Second), time.Nanosecond))...)

	var buf bytes.Buffer
	if err := WriteSpeedscope(&buf, events, "test"); err != nil {
		t.Fatal(err)
	}
	var f ssFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("speedscope output is not valid JSON: %v", err)
	}
	if f.Schema != "https://www.speedscope.app/file-format-schema.json" {
		t.Errorf("$schema = %q", f.Schema)
	}
	// Lanes: regions (control) plus workers 0..7 from the P=8 sweep.
	if len(f.Profiles) < 2 {
		t.Fatalf("profiles = %d, want at least control + worker lanes", len(f.Profiles))
	}
	for _, p := range f.Profiles {
		if p.Type != "evented" || p.Unit != "nanoseconds" {
			t.Errorf("profile %q type/unit = %s/%s", p.Name, p.Type, p.Unit)
		}
		// Open/close events must be balanced, monotone and in-range.
		depth := 0
		last := int64(-1)
		for _, e := range p.Events {
			if e.At < last {
				t.Fatalf("profile %q: events not monotone (%d after %d)", p.Name, e.At, last)
			}
			last = e.At
			if e.Frame < 0 || e.Frame >= len(f.Shared.Frames) {
				t.Fatalf("profile %q: frame %d out of range", p.Name, e.Frame)
			}
			switch e.Type {
			case "O":
				depth++
			case "C":
				depth--
			default:
				t.Fatalf("profile %q: bad event type %q", p.Name, e.Type)
			}
			if depth < 0 {
				t.Fatalf("profile %q: close before open", p.Name)
			}
		}
		if depth != 0 {
			t.Errorf("profile %q: %d unclosed frames", p.Name, depth)
		}
		if p.EndValue < last {
			t.Errorf("profile %q: endValue %d before last event %d", p.Name, p.EndValue, last)
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	events := StairStepTrace("zone", 15, []int{5}, time.Millisecond, 0, base)
	events = append(events, seqTrace(barrierRegionEvents("mix", base.Add(time.Second), time.Nanosecond))...)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var f chromeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("chrome trace output is not valid JSON: %v", err)
	}
	var spans, instants, meta int
	for _, e := range f.TraceEvents {
		switch e.Ph {
		case "X":
			spans++
			if e.Dur < 0 || e.Ts < 0 {
				t.Errorf("span %q has negative ts/dur", e.Name)
			}
		case "i":
			instants++
		case "M":
			meta++
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	// P=5 stair-step region: 1 region span + 5 chunks; barrier region:
	// 1 region + 4 chunks + 2 barrier waits (the 0-duration wait is
	// still emitted). Instants: 1 grant.
	if spans != 13 {
		t.Errorf("spans = %d, want 13", spans)
	}
	if instants != 1 {
		t.Errorf("instants = %d, want 1 (the grant)", instants)
	}
	if meta < 2 {
		t.Errorf("metadata events = %d, want process + thread names", meta)
	}
}

func TestDiff(t *testing.T) {
	good := Analyze(StairStepTrace("zone", 15, []int{8}, time.Millisecond, 0, base))
	if deltas := Diff(good, good, 1); len(deltas) != 0 {
		t.Errorf("self-diff not empty: %v", deltas)
	}

	// Degrade: same loop at P=5 (speedup 5.0 vs 7.5) and too little
	// work for the sync budget (1.5 µs against 5 × model.RegionNs).
	bad := Analyze(StairStepTrace("zone", 15, []int{5}, 100*time.Nanosecond, 0, base))
	deltas := Diff(good, bad, 1)
	found := map[string]Severity{}
	for _, d := range deltas {
		found[d.Field] = d.Severity
	}
	if found["achieved_speedup"] != SevRegression {
		t.Errorf("no achieved_speedup regression in %v", deltas)
	}
	if found["budget.pass"] != SevRegression {
		t.Errorf("no budget.pass regression in %v", deltas)
	}
	// And the reverse diff reports improvements, not regressions.
	for _, d := range Diff(bad, good, 1) {
		if d.Severity == SevRegression && (d.Field == "achieved_speedup" || d.Field == "budget.pass") {
			t.Errorf("reverse diff reports regression: %v", d)
		}
	}

	// Loop rename shows up as structural info.
	renamed := Analyze(StairStepTrace("other", 15, []int{8}, time.Millisecond, 0, base))
	var appeared, vanished bool
	for _, d := range Diff(good, renamed, 1) {
		if d.Field == "present" && d.Loop == "other" {
			appeared = true
		}
		if d.Field == "present" && d.Loop == "zone" {
			vanished = true
		}
	}
	if !appeared || !vanished {
		t.Error("loop rename not reported as present/absent info deltas")
	}

	// A truncated new report carries an info delta.
	truncated := *bad
	truncated.Truncated = true
	truncated.DroppedEvents = 7
	var flagged bool
	for _, d := range Diff(good, &truncated, 1) {
		if d.Field == "truncated" {
			flagged = true
		}
	}
	if !flagged {
		t.Error("truncation not flagged by diff")
	}
}
