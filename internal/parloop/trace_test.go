package parloop

import (
	"testing"

	"repro/internal/obs"
)

// countKinds tallies events by kind.
func countKinds(events []obs.Event) map[obs.Kind]int {
	m := make(map[obs.Kind]int)
	for _, e := range events {
		m[e.Kind]++
	}
	return m
}

func TestTracerRegionAndChunkEvents(t *testing.T) {
	tr := obs.NewTracer(1024, nil)
	tr.Enable()
	team := NewTeam(4)
	defer team.Close()
	team.SetTracer(tr, "zone7")

	team.For(16, func(i int) {})

	kinds := countKinds(tr.Events())
	if kinds[obs.KindRegionBegin] != 1 || kinds[obs.KindRegionEnd] != 1 {
		t.Errorf("region events %v, want one begin and one end", kinds)
	}
	// Four workers, 16 iterations: every worker gets a chunk.
	if kinds[obs.KindChunk] != 4 {
		t.Errorf("chunk events = %d, want 4", kinds[obs.KindChunk])
	}
	covered := 0
	for _, e := range tr.Events() {
		switch e.Kind {
		case obs.KindChunk:
			covered += int(e.B - e.A)
			if e.Worker < 0 || e.Worker >= 4 {
				t.Errorf("chunk worker %d out of range", e.Worker)
			}
		case obs.KindRegionEnd:
			if e.A != 4 {
				t.Errorf("region end team size %d, want 4", e.A)
			}
		}
		if e.Name != "zone7" {
			t.Errorf("event label %q, want zone7", e.Name)
		}
	}
	if covered != 16 {
		t.Errorf("chunk spans cover %d iterations, want 16", covered)
	}
}

func TestTracerBarrierEvents(t *testing.T) {
	tr := obs.NewTracer(1024, nil)
	tr.Enable()
	team := NewTeam(3)
	defer team.Close()
	team.SetTracer(tr, "")

	team.Region(func(ctx *WorkerCtx) {
		ctx.Barrier()
		ctx.Barrier()
	})

	kinds := countKinds(tr.Events())
	// Each of the 2 barriers is waited on by all 3 workers.
	if kinds[obs.KindBarrier] != 6 {
		t.Errorf("barrier events = %d, want 6", kinds[obs.KindBarrier])
	}
}

// TestTracerRegionLoopAndReduceChunks: loop phases inside a merged
// region (ctx.For) and reduction folds carry per-worker chunk spans
// with index ranges, so the analyzer can attribute their work.
func TestTracerRegionLoopAndReduceChunks(t *testing.T) {
	tr := obs.NewTracer(1024, nil)
	tr.Enable()
	team := NewTeam(4)
	defer team.Close()
	team.SetTracer(tr, "merged")

	team.Region(func(ctx *WorkerCtx) {
		ctx.For(10, func(i int) {})
		ctx.Barrier()
		ctx.For(6, func(i int) {})
	})
	covered := 0
	for _, e := range tr.Events() {
		if e.Kind == obs.KindChunk {
			covered += int(e.B - e.A)
			if e.Worker < 0 || e.Worker >= 4 {
				t.Errorf("chunk worker %d out of range", e.Worker)
			}
		}
	}
	if covered != 16 {
		t.Errorf("region loop chunk spans cover %d iterations, want 16", covered)
	}

	tr.Reset()
	if got := SumFloat64(team, 12, func(i int) float64 { return 1 }); got != 12 {
		t.Fatalf("SumFloat64 = %v, want 12", got)
	}
	covered = 0
	for _, e := range tr.Events() {
		if e.Kind == obs.KindChunk {
			covered += int(e.B - e.A)
		}
	}
	if covered != 12 {
		t.Errorf("reduction chunk spans cover %d iterations, want 12", covered)
	}
}

// TestPhaseEmitsOneSpan: Phase wraps its call in one phase span named
// under the team's label, after the regions it opened, and a serial
// phase gets one too.
func TestPhaseEmitsOneSpan(t *testing.T) {
	tr := obs.NewTracer(1024, nil)
	tr.Enable()
	team := NewTeam(3)
	defer team.Close()
	team.SetTracer(tr, "job")

	team.Phase("z/rhs", func() { team.For(9, func(int) {}) })
	team.Phase("z/bc", func() {})
	events := tr.Events()
	var spans []obs.Event
	for _, e := range events {
		if e.Kind == obs.KindPhase {
			spans = append(spans, e)
		}
	}
	if len(spans) != 2 || spans[0].Name != "job/z/rhs" || spans[1].Name != "job/z/bc" {
		t.Fatalf("phase spans %+v, want job/z/rhs then job/z/bc", spans)
	}
	if spans[0].Worker != -1 || spans[0].A != 3 {
		t.Errorf("phase span worker %d, team size %d, want -1 and 3", spans[0].Worker, spans[0].A)
	}
	// The rhs span holds its region: it starts before the fork and
	// ends after the join.
	begin, end := events[0], events[len(events)-3]
	if begin.Kind != obs.KindRegionBegin || end.Kind != obs.KindRegionEnd {
		t.Fatalf("event order %v ... %v, want region begin first and its end before the spans", begin.Kind, end.Kind)
	}
	if s := spans[0]; s.At.Add(-s.Dur).After(begin.At) || s.At.Before(end.At) {
		t.Errorf("rhs span [%v, %v] does not contain its region [%v, %v]", s.At.Add(-s.Dur), s.At, begin.At, end.At)
	}

	// An unlabeled team names the span by the phase alone.
	tr.Reset()
	team.SetTracer(tr, "")
	team.Phase("z/sweep-l", func() {})
	if ev := tr.Events(); len(ev) != 1 || ev[0].Name != "z/sweep-l" {
		t.Errorf("unlabeled phase events %+v, want one named z/sweep-l", ev)
	}

	// Disabled, Phase still runs its call, emits nothing and allocates
	// nothing.
	tr.Disable()
	tr.Reset()
	ran := 0
	if allocs := testing.AllocsPerRun(100, func() { team.Phase("z/bc", func() { ran++ }) }); allocs != 0 {
		t.Errorf("disabled Phase allocates %v per call", allocs)
	}
	if ran == 0 || tr.Len() != 0 {
		t.Errorf("disabled Phase ran its call %d times and recorded %d events", ran, tr.Len())
	}
}

func TestDisabledTracerEmitsNothingAndAddsNoAllocs(t *testing.T) {
	tr := obs.NewTracer(64, nil)
	team := NewTeam(4)
	defer team.Close()

	body := func(lo, hi int) {}
	base := testing.AllocsPerRun(100, func() { team.ForChunked(1024, body) })

	team.SetTracer(tr, "off")
	withTracer := testing.AllocsPerRun(100, func() { team.ForChunked(1024, body) })

	if tr.Len() != 0 {
		t.Errorf("disabled tracer recorded %d events", tr.Len())
	}
	if withTracer > base {
		t.Errorf("disabled tracer adds allocations: %v > %v per region", withTracer, base)
	}
}

func TestTracerSurvivesResizeAndPanic(t *testing.T) {
	tr := obs.NewTracer(1024, nil)
	tr.Enable()
	team := NewTeam(2)
	defer team.Close()
	team.SetTracer(tr, "crashy")

	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("worker panic not re-raised")
			}
		}()
		team.For(2, func(i int) {
			if i == 1 {
				panic("boom")
			}
		})
	}()

	team.Resize(3)
	tr.Reset()
	team.For(9, func(i int) {})
	kinds := countKinds(tr.Events())
	if kinds[obs.KindRegionEnd] != 1 || kinds[obs.KindChunk] != 3 {
		t.Errorf("after resize: events %v, want 1 region end and 3 chunks", kinds)
	}
}
