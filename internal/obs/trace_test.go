package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/simclock"
)

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	tr.Enable() // must not panic
	tr.Disable()
	tr.Emit(Event{Kind: KindGrant})
	tr.Reset()
	if got := tr.Events(); got != nil {
		t.Errorf("nil tracer Events() = %v, want nil", got)
	}
	if tr.Len() != 0 || tr.Total() != 0 || tr.Dropped() != 0 {
		t.Error("nil tracer reports nonzero accounting")
	}
	if !tr.Now().IsZero() {
		t.Error("nil tracer Now() is nonzero")
	}
}

func TestDisabledTracerRecordsNothing(t *testing.T) {
	tr := NewTracer(8, nil)
	tr.Emit(Event{Kind: KindRegionBegin})
	if tr.Len() != 0 {
		t.Fatalf("disabled tracer recorded %d events", tr.Len())
	}
}

// A tracer that is never enabled holds no ring: building one with
// f3dd's default capacity allocates a few words, not 65 536 events.
func TestNewTracerAllocatesNoRing(t *testing.T) {
	const n = 100
	keep := make([]*Tracer, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = NewTracer(1<<16, nil)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 1024 {
		t.Fatalf("NewTracer(1<<16) allocates %d B, want < 1 KiB", per)
	}
	runtime.KeepAlive(keep)
}

// A never-enabled tracer answers every query as an empty ring does.
func TestNeverEnabledTracerAnswers(t *testing.T) {
	tr := NewTracer(1<<16, nil)
	tr.Emit(Event{Kind: KindGrant})
	tr.Reset()
	if tr.Enabled() || tr.Len() != 0 || tr.Total() != 0 || tr.Dropped() != 0 {
		t.Fatalf("never-enabled tracer: enabled %v, Len %d, Total %d, Dropped %d; want false, 0, 0, 0",
			tr.Enabled(), tr.Len(), tr.Total(), tr.Dropped())
	}
	if ev := tr.Events(); ev != nil {
		t.Fatalf("Events() = %v, want nil", ev)
	}
	if ev, dropped := tr.EventsSince(0); ev != nil || dropped != 0 {
		t.Fatalf("EventsSince(0) = %v, %d; want nil, 0", ev, dropped)
	}
}

// Enable allocates the ring once: the first call allocates, later ones
// do not, and a Disable/Enable cycle keeps the events held.
func TestTracerEnableAllocatesOnce(t *testing.T) {
	fresh := make([]*Tracer, 11) // AllocsPerRun's warm-up call plus 10
	for i := range fresh {
		fresh[i] = NewTracer(64, nil)
	}
	i := 0
	if a := testing.AllocsPerRun(10, func() { fresh[i].Enable(); i++ }); a != 1 {
		t.Fatalf("first Enable allocates %v objects, want 1 (the ring)", a)
	}
	tr := fresh[0]
	for i := range 3 {
		tr.Emit(Event{Kind: KindChunk, A: int64(i), At: time.Unix(0, 1)})
	}
	if a := testing.AllocsPerRun(10, func() { tr.Disable(); tr.Enable() }); a != 0 {
		t.Fatalf("Disable+Enable allocates %v objects, want 0", a)
	}
	ev := tr.Events()
	if len(ev) != 3 || ev[2].A != 2 {
		t.Fatalf("after Disable+Enable: %+v, want the 3 held events", ev)
	}
}

// Emit racing the first Enable: a site that sees the tracer enabled
// finds its ring allocated. With -race this checks the lazy
// allocation is published before the enabled flag.
func TestTracerEmitRacesFirstEnable(t *testing.T) {
	for range 20 {
		tr := NewTracer(32, nil)
		var wg sync.WaitGroup
		for g := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range 200 {
					tr.Emit(Event{Kind: KindChunk, Worker: g, A: int64(i), At: time.Unix(0, 1)})
				}
			}()
		}
		tr.Enable()
		wg.Wait()
		ev := tr.Events()
		if uint64(len(ev)) != min(tr.Total(), 32) {
			t.Fatalf("held %d events of %d emitted, want min(total, 32)", len(ev), tr.Total())
		}
		for i := 1; i < len(ev); i++ {
			if ev[i].Seq != ev[i-1].Seq+1 {
				t.Fatalf("events out of order: Seq %d follows %d", ev[i].Seq, ev[i-1].Seq)
			}
		}
	}
}

func TestEmitAllocatesNothing(t *testing.T) {
	tr := NewTracer(1024, nil)
	tr.Enable()
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Emit(Event{Kind: KindBarrier, Worker: 2, Dur: time.Microsecond, At: time.Unix(0, 1)})
	})
	if allocs != 0 {
		t.Errorf("Emit allocates %v objects per call, want 0", allocs)
	}
}

func TestRingBufferOverwritesOldest(t *testing.T) {
	tr := NewTracer(4, nil)
	tr.Enable()
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Kind: KindChunk, A: int64(i), At: time.Unix(int64(i), 0)})
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Total() != 10 {
		t.Fatalf("Total = %d, want 10", tr.Total())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
	ev := tr.Events()
	for i, e := range ev {
		if want := int64(6 + i); e.A != want || e.Seq != uint64(want) {
			t.Errorf("event %d: A=%d Seq=%d, want both %d (oldest-first order)", i, e.A, e.Seq, want)
		}
	}
}

func TestResetClearsBuffer(t *testing.T) {
	tr := NewTracer(4, nil)
	tr.Enable()
	for i := 0; i < 6; i++ {
		tr.Emit(Event{Kind: KindChunk, At: time.Unix(1, 0)})
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Total() != 0 {
		t.Fatalf("after Reset: Len=%d Total=%d, want 0, 0", tr.Len(), tr.Total())
	}
	tr.Emit(Event{Kind: KindGrant, At: time.Unix(2, 0)})
	ev := tr.Events()
	if len(ev) != 1 || ev[0].Seq != 0 {
		t.Fatalf("after Reset+Emit: events %+v, want one event with Seq 0", ev)
	}
}

func TestVirtualClockTimestamps(t *testing.T) {
	start := time.Date(2001, 4, 1, 0, 0, 0, 0, time.UTC)
	vc := simclock.NewVirtual(start)
	tr := NewTracer(8, vc)
	tr.Enable()
	tr.Emit(Event{Kind: KindGrant})
	vc.Advance(90 * time.Second)
	tr.Emit(Event{Kind: KindResize})
	ev := tr.Events()
	if !ev[0].At.Equal(start) {
		t.Errorf("first event at %v, want virtual start %v", ev[0].At, start)
	}
	if want := start.Add(90 * time.Second); !ev[1].At.Equal(want) {
		t.Errorf("second event at %v, want %v", ev[1].At, want)
	}
}

func TestWriteEventsJSONL(t *testing.T) {
	tr := NewTracer(8, simclock.NewVirtual(time.Unix(1000, 0).UTC()))
	tr.Enable()
	tr.Emit(Event{Kind: KindGrant, Name: "f3d", Worker: -1, A: 4, B: 15})
	tr.Emit(Event{Kind: KindRegionEnd, Name: "f3d", Worker: -1, Dur: 1500 * time.Nanosecond, A: 4})

	var buf bytes.Buffer
	if err := WriteEventsJSONL(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2: %q", len(lines), buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line 0 is not JSON: %v", err)
	}
	if rec["kind"] != "grant" || rec["name"] != "f3d" || rec["a"] != float64(4) || rec["b"] != float64(15) {
		t.Errorf("grant line decoded to %v", rec)
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatalf("line 1 is not JSON: %v", err)
	}
	if rec["kind"] != "region_end" || rec["dur_ns"] != float64(1500) {
		t.Errorf("region_end line decoded to %v", rec)
	}

	// Every line must scan independently (the JSONL contract).
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Errorf("line %q: %v", sc.Text(), err)
		}
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		KindRegionBegin:  "region_begin",
		KindRegionEnd:    "region_end",
		KindBarrier:      "barrier",
		KindChunk:        "chunk",
		KindGrant:        "grant",
		KindResize:       "resize",
		KindPreempt:      "preempt",
		KindTraceDropped: "trace_dropped",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
		back, err := ParseKind(s)
		if err != nil || back != k {
			t.Errorf("ParseKind(%q) = %v, %v, want %v", s, back, err, k)
		}
	}
	if got := Kind(200).String(); !strings.Contains(got, "200") {
		t.Errorf("unknown kind prints %q", got)
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind accepted an unknown kind")
	}
}

func TestEventsSinceCursor(t *testing.T) {
	tr := NewTracer(4, nil)
	tr.Enable()
	for i := 0; i < 3; i++ {
		tr.Emit(Event{Kind: KindChunk, A: int64(i), At: time.Unix(int64(i), 0)})
	}

	// No drops yet: a cursor inside the window returns the tail.
	ev, dropped := tr.EventsSince(1)
	if dropped != 0 || len(ev) != 2 || ev[0].Seq != 1 {
		t.Fatalf("EventsSince(1) = %d events (dropped %d), first Seq %d; want 2, 0, 1", len(ev), dropped, ev[0].Seq)
	}
	// A cursor past the end returns nothing.
	if ev, dropped := tr.EventsSince(10); len(ev) != 0 || dropped != 0 {
		t.Fatalf("EventsSince(10) = %d events, dropped %d; want 0, 0", len(ev), dropped)
	}

	// Wrap the ring: seqs 0..5 are gone (capacity 4, 10 events).
	for i := 3; i < 10; i++ {
		tr.Emit(Event{Kind: KindChunk, A: int64(i), At: time.Unix(int64(i), 0)})
	}
	ev, dropped = tr.EventsSince(0)
	if dropped != 6 {
		t.Fatalf("dropped = %d, want 6", dropped)
	}
	if len(ev) != 5 || ev[0].Kind != KindTraceDropped || ev[0].A != 6 || ev[0].Seq != 0 {
		t.Fatalf("EventsSince(0) after wrap: %+v; want leading trace_dropped marker with A=6", ev)
	}
	if ev[1].Seq != 6 || ev[len(ev)-1].Seq != 9 {
		t.Fatalf("surviving window = [%d, %d], want [6, 9]", ev[1].Seq, ev[len(ev)-1].Seq)
	}
	// Resuming from a live cursor sees no marker.
	if ev, dropped := tr.EventsSince(8); dropped != 0 || len(ev) != 2 || ev[0].Kind == KindTraceDropped {
		t.Fatalf("EventsSince(8) = %+v (dropped %d), want the 2 tail events and no marker", ev, dropped)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := NewTracer(16, simclock.NewVirtual(time.Unix(2000, 0).UTC()))
	tr.Enable()
	in := []Event{
		{Kind: KindGrant, Name: "f3d", Worker: -1, A: 4, B: 15},
		{Kind: KindChunk, Name: "f3d", Worker: 2, Dur: 1500 * time.Nanosecond, A: 0, B: 8},
		{Kind: KindResize, Name: "f3d", Worker: -1, A: 4, B: 8, C: 15},
		{Kind: KindBarrier, Name: "f3d", Worker: 1, Dur: 40 * time.Nanosecond},
	}
	for _, e := range in {
		tr.Emit(e)
	}
	var buf bytes.Buffer
	if err := WriteEventsJSONL(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Events()
	if len(got) != len(want) {
		t.Fatalf("round trip returned %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].At.Equal(want[i].At) {
			t.Errorf("event %d At = %v, want %v", i, got[i].At, want[i].At)
		}
		got[i].At, want[i].At = time.Time{}, time.Time{}
		if got[i] != want[i] {
			t.Errorf("event %d round-tripped to %+v, want %+v", i, got[i], want[i])
		}
	}

	if _, err := ReadJSONL(strings.NewReader("{\"kind\":\"nope\",\"at\":\"2001-01-01T00:00:00Z\"}\n")); err == nil {
		t.Error("ReadJSONL accepted an unknown kind")
	}
	if _, err := ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Error("ReadJSONL accepted a malformed line")
	}
}

// FuzzReadJSONL: ReadJSONL decodes bytes another process sent — the
// coordinator reads every worker's /trace through it — so no input may
// panic it, and whatever it accepts must come back unchanged from a
// WriteEventsJSONL and a second read.
func FuzzReadJSONL(f *testing.F) {
	at := time.Date(2001, 4, 1, 0, 0, 0, 0, time.UTC)
	events := []Event{DropMarker(3, 5, at)}
	for k := Kind(0); k < kindCount; k++ {
		events = append(events, Event{Seq: 8 + uint64(k), At: at.Add(time.Duration(k)), Kind: k,
			Name: "f3d", Worker: int(k)%3 - 1, Node: "w01", Trace: "f3dc#1", Epoch: 2,
			Dur: time.Microsecond, A: 1, B: -2, C: 3})
	}
	var all bytes.Buffer
	if err := WriteEventsJSONL(&all, events); err != nil {
		f.Fatal(err)
	}
	f.Add(all.Bytes())
	first, _, _ := bytes.Cut(all.Bytes(), []byte("\n"))
	f.Add([]byte("\n  \r\n" + string(first) + "\n\n\t\n"))
	for _, ts := range []string{
		"0000-01-01T00:00:00Z",
		"9999-12-31T23:59:59.999999999Z",
		"1970-01-01T00:00:00.000000001Z",
		"2001-04-01T00:00:00.1+14:00",
		"2001-04-01T23:59:59.123456789-23:59",
	} {
		f.Add([]byte(`{"seq":1,"at":"` + ts + `","kind":"barrier","worker":2,"dur_ns":40}` + "\n"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteEventsJSONL(&buf, events); err != nil {
			t.Fatalf("accepted events do not write back: %v", err)
		}
		again, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("written events do not read back: %v\n%s", err, buf.Bytes())
		}
		if len(again) != len(events) {
			t.Fatalf("%d events read back as %d", len(events), len(again))
		}
		for i, e := range events {
			g := again[i]
			if !g.At.Equal(e.At) {
				t.Fatalf("event %d: At %v read back as %v", i, e.At, g.At)
			}
			e.At, g.At = time.Time{}, time.Time{}
			if g != e {
				t.Fatalf("event %d: %+v read back as %+v", i, e, g)
			}
		}
	})
}

// TestTracerConcurrentEnableDisableEmitEvents hammers the tracer's
// whole control surface from many goroutines at once; with -race this
// is the proof Enable/Disable/Emit/Events/EventsSince/Reset share no
// unsynchronized state.
func TestTracerConcurrentEnableDisableEmitEvents(t *testing.T) {
	tr := NewTracer(128, nil)
	tr.Enable()
	stop := make(chan struct{})

	var emitters sync.WaitGroup
	for g := 0; g < 4; g++ {
		emitters.Add(1)
		go func(g int) {
			defer emitters.Done()
			for i := 0; i < 2000; i++ {
				tr.Emit(Event{Kind: KindChunk, Worker: g, A: int64(i), At: time.Unix(0, 1)})
			}
		}(g)
	}

	var control sync.WaitGroup
	control.Add(2)
	go func() { // toggler
		defer control.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				tr.Disable()
			} else {
				tr.Enable()
			}
		}
	}()
	go func() { // reader with a live cursor, occasionally resetting
		defer control.Done()
		var cursor uint64
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ev, _ := tr.EventsSince(cursor)
			for _, e := range ev {
				if e.Kind != KindTraceDropped {
					cursor = e.Seq + 1
				}
			}
			tr.Events()
			tr.Len()
			tr.Dropped()
			if i%50 == 49 {
				tr.Reset()
				cursor = 0
			}
		}
	}()

	emitters.Wait()
	close(stop)
	control.Wait()

	// The final state must still be internally consistent.
	ev := tr.Events()
	for i := 1; i < len(ev); i++ {
		if ev[i].Seq != ev[i-1].Seq+1 {
			t.Fatalf("events out of order: Seq %d follows %d", ev[i].Seq, ev[i-1].Seq)
		}
	}
}

func TestTracerConcurrentEmit(t *testing.T) {
	tr := NewTracer(256, nil)
	tr.Enable()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Emit(Event{Kind: KindChunk, Worker: g, A: int64(i), At: time.Unix(0, 1)})
				if i%100 == 0 {
					tr.Events()
					tr.Len()
				}
			}
		}(g)
	}
	wg.Wait()
	if tr.Total() != 4000 {
		t.Fatalf("Total = %d, want 4000", tr.Total())
	}
	ev := tr.Events()
	for i := 1; i < len(ev); i++ {
		if ev[i].Seq != ev[i-1].Seq+1 {
			t.Fatalf("events out of order: Seq %d follows %d", ev[i].Seq, ev[i-1].Seq)
		}
	}
}
