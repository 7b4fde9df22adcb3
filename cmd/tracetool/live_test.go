package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/parloop"
)

// TestLiveTeamTrace runs a trace recorded on a live parloop.Team, not a
// synthesized one, through analyze and convert: the paper's
// Example 3 nest with its region hoisted into the parent (one loop of
// 256 units, each summing 512 terms) on four workers under an enabled
// tracer, its ring written as JSONL.
func TestLiveTeamTrace(t *testing.T) {
	tr := obs.NewTracer(1024, nil)
	team := parloop.NewTeam(4)
	defer team.Close()
	team.SetTracer(tr, "example3")
	tr.Enable()
	var sink atomic.Int64
	team.For(256, func(j int) {
		s := int64(0)
		for i := 0; i < 512; i++ {
			s += int64(i ^ j)
		}
		sink.Add(s)
	})
	tr.Disable()

	dir := t.TempDir()
	trace := filepath.Join(dir, "example3.jsonl")
	var buf bytes.Buffer
	events, _ := tr.EventsSince(0)
	if err := obs.WriteEventsJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(trace, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, args := range [][]string{
		{"analyze", "-label", "example3", trace},
		{"convert", "-o", filepath.Join(dir, "example3.chrome.json"), trace},
	} {
		var out, errb bytes.Buffer
		if code := run(args, nil, &out, &errb); code != 0 {
			t.Errorf("tracetool %v: exit %d, stderr: %s", args[:2], code, errb.String())
		}
	}
}
