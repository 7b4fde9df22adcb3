package analyze

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/parloop"
)

func TestAddAndEntries(t *testing.T) {
	p := NewProfiler()
	p.Add("rhs", 100*time.Millisecond)
	p.Add("rhs", 200*time.Millisecond)
	p.Add("bc", 5*time.Millisecond)
	p.Add("sweep", 350*time.Millisecond)
	es := p.Entries()
	if len(es) != 3 {
		t.Fatalf("entries = %d, want 3", len(es))
	}
	if es[0].Name != "sweep" || es[1].Name != "rhs" || es[2].Name != "bc" {
		t.Errorf("wrong order: %v, %v, %v", es[0].Name, es[1].Name, es[2].Name)
	}
	if es[1].Calls != 2 || es[1].Total != 300*time.Millisecond {
		t.Errorf("rhs entry wrong: %+v", es[1])
	}
	if es[1].Mean() != 150*time.Millisecond {
		t.Errorf("rhs mean = %v", es[1].Mean())
	}
	if p.Total() != 655*time.Millisecond {
		t.Errorf("Total = %v", p.Total())
	}
}

func TestTimeChargesDuration(t *testing.T) {
	p := NewProfiler()
	p.Time("work", func() { time.Sleep(5 * time.Millisecond) })
	es := p.Entries()
	if len(es) != 1 || es[0].Total < 4*time.Millisecond {
		t.Errorf("Time charged %v", es)
	}
}

func TestProfilerConcurrentUse(t *testing.T) {
	p := NewProfiler()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				p.Add("loop", time.Microsecond)
			}
		}()
	}
	wg.Wait()
	es := p.Entries()
	if es[0].Calls != 800 {
		t.Errorf("calls = %d, want 800", es[0].Calls)
	}
}

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
// label, barrier waits and chunks under "/barrier" and "/chunk", and
// ignores events that are not spans.
func TestRankedChargesSpans(t *testing.T) {
	events := []obs.Event{
		{Kind: obs.KindRegionEnd, Name: "rhs", Dur: 10 * time.Millisecond},
		{Kind: obs.KindRegionEnd, Name: "rhs", Dur: 30 * time.Millisecond},
		{Kind: obs.KindRegionEnd, Name: "bc", Dur: 5 * time.Millisecond},
		{Kind: obs.KindBarrier, Name: "rhs", Worker: 1, Dur: 2 * time.Millisecond},
		{Kind: obs.KindChunk, Name: "rhs", Worker: 0, Dur: 9 * time.Millisecond},
		{Kind: obs.KindRegionEnd, Name: "", Dur: time.Millisecond},
		{Kind: obs.KindGrant, Name: "rhs", A: 4, B: 8}, // not a span: ignored
	}
	entries := Analyze(events).Ranked
	if len(entries) != 5 {
		t.Fatalf("got %d entries, want 5: %+v", len(entries), entries)
	}
	// Sorted by total: rhs (40ms) first.
	if entries[0].Name != "rhs" || entries[0].Total != 40*time.Millisecond || entries[0].Calls != 2 {
		t.Errorf("top entry = %+v, want rhs 40ms over 2 calls", entries[0])
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
