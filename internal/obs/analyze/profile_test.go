package analyze

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/parloop"
)

func TestMeanEmptyEntry(t *testing.T) {
	if (Entry{}).Mean() != 0 {
		t.Error("zero entry mean should be 0")
	}
}

func TestFormatRanked(t *testing.T) {
	entries := []Entry{
		{Name: "sweep", Calls: 5, Total: 500 * time.Millisecond},
		{Name: "rhs", Calls: 5, Total: 400 * time.Millisecond},
		{Name: "bc", Calls: 5, Total: 100 * time.Millisecond},
	}
	out := FormatRanked(entries, 2)
	if !strings.Contains(out, "sweep") || !strings.Contains(out, "rhs") {
		t.Errorf("FormatRanked missing entries:\n%s", out)
	}
	if strings.Contains(out, "bc") {
		t.Errorf("FormatRanked should truncate to 2 rows:\n%s", out)
	}
	if !strings.Contains(out, "50.0%") {
		t.Errorf("FormatRanked missing self%% column:\n%s", out)
	}
	full := FormatRanked(entries, 0)
	if !strings.Contains(full, "bc") {
		t.Errorf("FormatRanked(0) should include all rows:\n%s", full)
	}
	if !strings.Contains(full, "100.0%") {
		t.Errorf("cumulative should reach 100%%:\n%s", full)
	}
}

// TestRankedChargesSpans: Report.Ranked charges region ends under their
// label, barrier waits and chunks under "/barrier" and "/chunk", phase
// spans under their own name, and ignores events that are not spans.
func TestRankedChargesSpans(t *testing.T) {
	events := []obs.Event{
		{Kind: obs.KindRegionEnd, Name: "rhs", Dur: 10 * time.Millisecond},
		{Kind: obs.KindRegionEnd, Name: "rhs", Dur: 30 * time.Millisecond},
		{Kind: obs.KindRegionEnd, Name: "bc", Dur: 5 * time.Millisecond},
		{Kind: obs.KindBarrier, Name: "rhs", Worker: 1, Dur: 2 * time.Millisecond},
		{Kind: obs.KindChunk, Name: "rhs", Worker: 0, Dur: 9 * time.Millisecond},
		{Kind: obs.KindRegionEnd, Name: "", Dur: time.Millisecond},
		{Kind: obs.KindGrant, Name: "rhs", A: 4, B: 8}, // not a span: ignored
		{Kind: obs.KindPhase, Name: "job/z1/rhs", Worker: -1, Dur: 11 * time.Millisecond},
		{Kind: obs.KindPhase, Name: "job/z1/rhs", Worker: -1, Dur: 31 * time.Millisecond},
	}
	entries := Analyze(events).Ranked
	if len(entries) != 6 {
		t.Fatalf("got %d entries, want 6: %+v", len(entries), entries)
	}
	// Sorted by total: the rhs phase (42ms) first, then its regions.
	if entries[0].Name != "job/z1/rhs" || entries[0].Total != 42*time.Millisecond || entries[0].Calls != 2 {
		t.Errorf("top entry = %+v, want job/z1/rhs 42ms over 2 calls", entries[0])
	}
	if entries[1].Name != "rhs" || entries[1].Total != 40*time.Millisecond || entries[1].Calls != 2 {
		t.Errorf("second entry = %+v, want rhs 40ms over 2 calls", entries[1])
	}
	byName := make(map[string]Entry)
	for _, e := range entries {
		byName[e.Name] = e
	}
	if e := byName["rhs/barrier"]; e.Total != 2*time.Millisecond {
		t.Errorf("rhs/barrier = %+v", e)
	}
	if e := byName["rhs/chunk"]; e.Total != 9*time.Millisecond {
		t.Errorf("rhs/chunk = %+v", e)
	}
	if e := byName["region"]; e.Total != time.Millisecond {
		t.Errorf("unlabeled region = %+v", e)
	}
}

// TestRankedFromLiveTeam closes the loop: a traced parloop team's
// events land in the report's ranking without any Time() calls in the
// loop bodies.
func TestRankedFromLiveTeam(t *testing.T) {
	tr := obs.NewTracer(4096, nil)
	tr.Enable()
	team := parloop.NewTeam(4)
	defer team.Close()
	team.SetTracer(tr, "sweep")

	for step := 0; step < 5; step++ {
		team.ForChunked(1<<12, func(lo, hi int) {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += float64(i)
			}
			_ = s
		})
	}

	byName := make(map[string]Entry)
	for _, e := range Analyze(tr.Events()).Ranked {
		byName[e.Name] = e
	}
	if e := byName["sweep"]; e.Calls != 5 {
		t.Errorf("sweep regions = %+v, want 5 calls", e)
	}
	if e := byName["sweep/chunk"]; e.Calls != 20 {
		t.Errorf("sweep chunks = %+v, want 20 calls (4 workers x 5 regions)", e)
	}
	if byName["sweep"].Total <= 0 || byName["sweep/chunk"].Total <= 0 {
		t.Error("span durations were not recorded")
	}
}
