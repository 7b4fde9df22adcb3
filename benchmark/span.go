package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
)

// span is one traced interval, recorded by the benchmark around a call
// into a layer. Times are nanoseconds since the run's epoch. Spans of
// one job or solve share Trace; the root has Parent 0.
type span struct {
	Trace     uint64 `json:"trace"`
	Span      uint64 `json:"span"`
	Parent    uint64 `json:"parent"`
	Name      string `json:"name"`
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
	Worker    string `json:"worker,omitempty"`
	BytesUp   int64  `json:"bytes_up,omitempty"`
	BytesDown int64  `json:"bytes_down,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder collects spans in memory; they are written out when the run
// ends. It is shared by the load-generator clients and the cluster
// proxies, so appends take a lock — held for one slice append.
type recorder struct {
	mu    sync.Mutex
	next  uint64
	spans []span
}

// id hands out a fresh span (or trace) identifier.
func (r *recorder) id() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

func (r *recorder) add(spans ...span) {
	r.mu.Lock()
	r.spans = append(r.spans, spans...)
	r.mu.Unlock()
}

func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfKey is the attribution bucket for the part of a root span none of
// its children cover.
const selfKey = "self"

// attribute splits a root span's duration among its children by name:
// every instant of the root is charged to exactly one bucket — the
// covering child that started first (ties: listed first), or selfKey
// when no child covers it — so the buckets sum to the root's duration
// exactly. Children are clipped to the root's interval.
func attribute(root span, children []span) map[string]int64 {
	out := map[string]int64{selfKey: 0}
	kids := make([]span, 0, len(children))
	for _, c := range children {
		if c.Start < root.Start {
			c.Start = root.Start
		}
		if c.End > root.End {
			c.End = root.End
		}
		if c.End > c.Start {
			kids = append(kids, c)
		}
	}
	sort.SliceStable(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	at := root.Start // everything before `at` is already charged
	for _, c := range kids {
		if c.Start > at {
			out[selfKey] += c.Start - at
			at = c.Start
		}
		if c.End > at {
			out[c.Name] += c.End - at
			at = c.End
		}
	}
	out[selfKey] += root.End - at
	return out
}

// selfTime is a span's duration minus the union of its children.
func selfTime(root span, children []span) int64 {
	return attribute(root, children)[selfKey]
}

// checkClosure verifies, for every root among spans, that its children
// lie inside it and that the per-name attribution plus self time equals
// its duration. It returns the number of roots and the first violation.
func checkClosure(spans []span) (roots int, err error) {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for _, r := range spans {
		if r.Parent != 0 {
			continue
		}
		roots++
		if r.End < r.Start {
			return roots, fmt.Errorf("root %d (%s) ends before it starts", r.Span, r.Name)
		}
		for _, c := range kids[r.Span] {
			if c.Trace != r.Trace {
				return roots, fmt.Errorf("span %d (%s) has trace %d, its root %d has %d", c.Span, c.Name, c.Trace, r.Span, r.Trace)
			}
			if c.Start < r.Start || c.End > r.End || c.End < c.Start {
				return roots, fmt.Errorf("span %d (%s) [%d,%d] leaves its root %d (%s) [%d,%d]",
					c.Span, c.Name, c.Start, c.End, r.Span, r.Name, r.Start, r.End)
			}
		}
		total := int64(0)
		for _, v := range attribute(r, kids[r.Span]) {
			if v < 0 {
				return roots, fmt.Errorf("root %d (%s): negative bucket", r.Span, r.Name)
			}
			total += v
		}
		if total != r.dur() {
			return roots, fmt.Errorf("root %d (%s): children + self = %d ns, span = %d ns", r.Span, r.Name, total, r.dur())
		}
	}
	return roots, nil
}
