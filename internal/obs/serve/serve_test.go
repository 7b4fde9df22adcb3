package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// do sends one request through a mux the surface is mounted on.
func do(s Surface, method, target, body string) *httptest.ResponseRecorder {
	mux := http.NewServeMux()
	s.Mount(mux)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rec
}

func itoa(v uint64) string { return strconv.FormatUint(v, 10) }

// wrappedTracer is an enabled ring of 4 events that has been sent 10:
// sequences 0..5 are gone, 6..9 are held.
func wrappedTracer() *obs.Tracer {
	tr := obs.NewTracer(4, nil)
	tr.Enable()
	for i := 0; i < 10; i++ {
		tr.Emit(obs.Event{Kind: obs.KindChunk, Name: "loop", A: int64(i)})
	}
	return tr
}

func TestTraceRejectsBadCursor(t *testing.T) {
	s := Surface{Tracer: wrappedTracer()}
	for _, target := range []string{"/trace?since=abc", "/trace?since=-1"} {
		if rec := do(s, "GET", target, ""); rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s: %d, want 400", target, rec.Code)
		}
	}
}

// TestTraceCursorAfterWrap reads a wrapped ring from the start and from
// inside its live window: the headers report the lost events and where
// to resume, and the batch ReadTrace decodes leads with the marker.
func TestTraceCursorAfterWrap(t *testing.T) {
	s := Surface{Tracer: wrappedTracer()}
	for _, tc := range []struct {
		since               uint64
		next, dropped, held uint64
	}{
		{since: 0, next: 10, dropped: 6, held: 4},
		{since: 8, next: 10, dropped: 0, held: 2},
		{since: 10, next: 10, dropped: 0, held: 0},
	} {
		rec := do(s, "GET", "/trace?since="+itoa(tc.since), "")
		if rec.Code != http.StatusOK {
			t.Fatalf("since=%d: %d", tc.since, rec.Code)
		}
		if got := rec.Header().Get(headerTraceNext); got != itoa(tc.next) {
			t.Errorf("since=%d: %s = %s, want %d", tc.since, headerTraceNext, got, tc.next)
		}
		if got := rec.Header().Get(headerTraceDropped); got != itoa(tc.dropped) {
			t.Errorf("since=%d: %s = %s, want %d", tc.since, headerTraceDropped, got, tc.dropped)
		}
		events, err := ReadTrace(rec.Result())
		if err != nil {
			t.Fatalf("since=%d: ReadTrace: %v", tc.since, err)
		}
		held := events
		if tc.dropped > 0 {
			if len(events) == 0 || events[0].Kind != obs.KindTraceDropped || uint64(events[0].A) != tc.dropped {
				t.Fatalf("since=%d: batch does not lead with a marker of %d drops: %v", tc.since, tc.dropped, events)
			}
			held = events[1:]
		}
		for _, e := range held {
			if e.Kind == obs.KindTraceDropped || e.Seq < tc.since {
				t.Errorf("since=%d: batch holds %v", tc.since, e)
			}
		}
		if uint64(len(held)) != tc.held {
			t.Errorf("since=%d: %d events held, want %d", tc.since, len(held), tc.held)
		}
	}
}

func TestTraceEnable(t *testing.T) {
	tr := wrappedTracer()
	s := Surface{Tracer: tr}

	rec := do(s, "POST", PathTraceEnable, `{"enabled":false,"bogus":1}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown field: %d, want 400", rec.Code)
	}
	if !tr.Enabled() || tr.Len() != 4 {
		t.Errorf("a rejected request changed the tracer: enabled %v, %d events", tr.Enabled(), tr.Len())
	}

	rec = do(s, "POST", PathTraceEnable, `{"enabled":false}`)
	var st TraceStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("disable: %d %v", rec.Code, err)
	}
	if st.Enabled || tr.Enabled() || st.Events != 4 || st.Dropped != 6 {
		t.Errorf("disable: status %+v, tracer enabled %v", st, tr.Enabled())
	}

	rec = do(s, "POST", PathTraceEnable, `{"reset":true}`)
	st = TraceStatus{}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("reset: %d %v", rec.Code, err)
	}
	if !st.Enabled || st.Events != 0 || st.Dropped != 0 || tr.Len() != 0 {
		t.Errorf("reset: status %+v, ring holds %d", st, tr.Len())
	}
	rec = do(s, "GET", "/trace", "")
	if events, err := obs.ReadJSONL(rec.Body); err != nil || len(events) != 0 {
		t.Errorf("after reset /trace = %v, %v", events, err)
	}
}

// blankLines is an endless JSONL body of blank lines: every byte decodes,
// none is an event, so only the size cap can end the read.
type blankLines struct{ n int }

func (b *blankLines) Read(p []byte) (int, error) {
	for i := range p {
		b.n++
		p[i] = ' '
		if b.n%4096 == 0 {
			p[i] = '\n'
		}
	}
	return len(p), nil
}

func TestReadTraceCapsBody(t *testing.T) {
	resp := &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(&blankLines{})}
	events, err := ReadTrace(resp)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized body: err %v, want a size error", err)
	}
	if events != nil {
		t.Errorf("oversized body returned %d events, want none", len(events))
	}
}
