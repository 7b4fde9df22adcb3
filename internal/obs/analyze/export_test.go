package analyze

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestWriteChromeTrace checks what a trace viewer reads: the object
// form with a traceEvents array, an "X" span with ts and dur for every
// region, chunk and barrier wait — each worker's on its own named
// thread, chunks carrying their bounds — and an "i" instant for each
// scheduler event.
func TestWriteChromeTrace(t *testing.T) {
	events := StairStepTrace("zone", 15, []int{5}, time.Millisecond, 0, base)
	events = append(events, seqTrace(barrierRegionEvents("mix", base.Add(time.Second), time.Nanosecond))...)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var f map[string][]map[string]any
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("chrome trace output is not a JSON object of arrays: %v", err)
	}
	out, ok := f["traceEvents"]
	if !ok {
		t.Fatal("no traceEvents array")
	}
	// Spans expected per thread: tid 0 holds the regions, tid w+1
	// worker w's chunks and barrier waits.
	want := map[float64]int{}
	for _, e := range events {
		switch e.Kind {
		case obs.KindRegionEnd:
			want[0]++
		case obs.KindChunk, obs.KindBarrier:
			want[float64(e.Worker+1)]++
		}
	}
	got := map[float64]int{}
	threads := map[float64]string{}
	instants := 0
	for _, e := range out {
		tid, _ := e["tid"].(float64)
		switch e["ph"] {
		case "X":
			got[tid]++
			ts, okTs := e["ts"].(float64)
			dur, okDur := e["dur"].(float64)
			if !okTs || !okDur || ts < 0 || dur < 0 {
				t.Errorf("span %v: ts/dur missing or negative", e)
			}
			if e["cat"] == "chunk" {
				args, _ := e["args"].(map[string]any)
				if lo, hi := args["lo"], args["hi"]; lo == nil || hi == nil || lo.(float64) >= hi.(float64) {
					t.Errorf("chunk span %v: bad lo/hi args", e)
				}
			}
		case "i":
			instants++
			if e["cat"] != "sched" || e["s"] != "g" {
				t.Errorf("instant %v: want a global sched mark", e)
			}
		case "M":
			if e["name"] == "thread_name" {
				name, _ := e["args"].(map[string]any)["name"].(string)
				threads[tid] = name
			}
		default:
			t.Errorf("unexpected phase %v", e["ph"])
		}
	}
	// P=5 stair-step region: 1 region span + 5 chunks; barrier region:
	// 1 region + 4 chunks + 2 barrier waits (the 0-duration wait is
	// still emitted).
	if !maps.Equal(got, want) || len(want) != 6 {
		t.Errorf("spans per tid = %v, want %v", got, want)
	}
	for tid := range want {
		name := "regions"
		if tid > 0 {
			name = fmt.Sprintf("worker %d", int(tid)-1)
		}
		if threads[tid] != name {
			t.Errorf("tid %v named %q, want %q", tid, threads[tid], name)
		}
	}
	if instants != 1 {
		t.Errorf("instants = %d, want 1 (the grant)", instants)
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
