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
// region, phase, chunk and barrier wait — regions and phases on thread
// 0, each worker's on its own named thread, chunks carrying their
// bounds — and an "i" instant for each scheduler event.
func TestWriteChromeTrace(t *testing.T) {
	events := StairStepTrace("zone", 15, []int{5}, time.Millisecond, 0, base)
	events = append(events, seqTrace(barrierRegionEvents("mix", base.Add(time.Second), time.Nanosecond))...)
	// A phase span around the stair-step region.
	last := events[len(events)-1]
	events = append(events, obs.Event{At: last.At, Kind: obs.KindPhase, Name: "zone/z1/rhs", Worker: -1, Dur: last.At.Sub(base), A: 5})

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
		case obs.KindRegionEnd, obs.KindPhase:
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
			if e["cat"] == "phase" && (e["name"] != "zone/z1/rhs" || tid != 0 || e["ts"] != 0.0) {
				t.Errorf("phase span %v: want zone/z1/rhs on tid 0 from ts 0", e)
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
	// still emitted); 1 phase span.
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
