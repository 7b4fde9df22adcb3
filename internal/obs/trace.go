// Package obs is the observability substrate of the runtime stack: a
// low-overhead synchronization-event tracer and a Prometheus-text
// metrics registry.
//
// The paper's method is measure-first — profile the loops, count the
// synchronization events, rank by cost, then parallelize (§4's
// prof/Perfex workflow). Package obs makes that measurement available
// at runtime instead of only in offline benchmarks: parloop teams
// emit region/barrier/chunk span events, the scheduler emits
// grant/resize/preempt events, and both feed counters and histograms
// that cmd/f3dd exposes over HTTP.
//
// The tracer is designed to be left attached in production:
//
//   - Disabled, every instrumentation site costs one nil check plus
//     one atomic load and allocates nothing (Event is a value type and
//     no timestamp is read).
//   - Enabled, events go into a fixed-capacity ring buffer (oldest
//     overwritten) under a single mutex; export is JSONL. The ring is
//     allocated when tracing is first enabled, so a tracer that is
//     never enabled holds no event storage.
//   - Timestamps come from a simclock.Clock, so traces taken under the
//     virtual clock of the deterministic test harness carry simulated
//     time, exactly like the scheduler's own accounting.
//
// All Tracer methods are safe on a nil receiver (a nil tracer is
// permanently disabled), so instrumented code never needs a nil guard.
package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simclock"
)

// Kind classifies a trace event.
type Kind uint8

const (
	// KindRegionBegin marks the fork of a parallel region. A carries
	// the team size.
	KindRegionBegin Kind = iota
	// KindRegionEnd marks the join of a parallel region; Dur spans the
	// whole fork-join. A carries the team size.
	KindRegionEnd
	// KindBarrier is one worker's wait at a mid-region barrier; Dur is
	// the time that worker spent parked.
	KindBarrier
	// KindChunk is one worker's execution of one loop chunk; A and B
	// carry the chunk's [lo, hi) bounds.
	KindChunk
	// KindGrant is a scheduler grant: a job received processors. A
	// carries the granted processor count, B the job's requested
	// parallelism M.
	KindGrant
	// KindResize is an applied grant resize (at a job checkpoint). A
	// carries the old grant, B the new.
	KindResize
	// KindPreempt is a shrink request issued to a running job so
	// queued work can be admitted. A carries the victim's current
	// grant, B the requested lower plateau.
	KindPreempt
	// KindTraceDropped is a synthetic marker injected into cursor
	// reads and JSONL exports when ring-buffer wraparound dropped
	// events from the requested window. A carries the number of
	// dropped events; Seq is the sequence the window asked for.
	// Consumers (the analyzer in particular) use it to flag reports
	// built from truncated traces instead of silently mis-attributing
	// time.
	KindTraceDropped
	// KindShardStep is one lockstep time step of a sharded solve. The
	// coordinator's (Node CoordNode) spans the whole step, the slowest
	// worker's RPC included; a worker's spans its solver step alone. A
	// carries the step index, B the number of live shards (on a
	// worker's, the zones its shard holds).
	KindShardStep
	// KindExchange is the coordinator's record of one boundary-plane
	// exchange round between lockstep steps. A carries the step index,
	// B the number of planes routed.
	KindExchange
	// KindFailover is a re-shard after a worker loss. Name carries the
	// lost worker's id, A the checkpoint step rolled back to, B the
	// number of surviving workers. The coordinator additionally emits
	// one span-shaped failover event per recovery (Name = job, B = the
	// workers lost, Dur = from the start of the round that lost the
	// first of them to the end of the re-shard that replaces them) so
	// the cluster analyzer can charge failover time to the step that
	// replays.
	KindFailover
	// KindStepRPC is the coordinator-side span of one worker's
	// lockstep StepShard RPC: Node carries the worker id, Dur the
	// round-trip as the coordinator's clock saw it, A the step index,
	// B the number of live shards. The per-step straggler is the
	// worker whose StepRPC span is longest.
	KindStepRPC
	// KindPhase is one named phase of a team's work (a solver step's
	// group: "<zone>/<group>"), spanning the regions it opens or the
	// serial code it runs. Name is "<label>/<phase>", Worker -1, Dur
	// the phase, A the team size. Analysis ranks phase spans but never
	// counts them in a loop's attribution: they contain its regions.
	KindPhase

	// kindCount sentinels the enum: every Kind below it must have a
	// name in kinds, which the exhaustive round-trip test enforces.
	kindCount
)

// kinds names every Kind: the snake_case name used in JSONL export.
var kinds = [kindCount]string{
	KindRegionBegin: "region_begin", KindRegionEnd: "region_end", KindBarrier: "barrier",
	KindChunk: "chunk", KindGrant: "grant", KindResize: "resize", KindPreempt: "preempt",
	KindTraceDropped: "trace_dropped", KindShardStep: "shard_step",
	KindExchange: "exchange", KindFailover: "failover", KindStepRPC: "step_rpc",
	KindPhase: "phase",
}

// String returns the snake_case name used in JSONL export, or Kind(n)
// for a kind with none.
func (k Kind) String() string {
	if k < kindCount && kinds[k] != "" {
		return kinds[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind inverts Kind.String, so JSONL traces can be read back.
func ParseKind(s string) (Kind, error) {
	for k, name := range kinds {
		if name == s && s != "" {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("obs: unknown event kind %q", s)
}

// CoordNode is the Node of a cluster coordinator's own events in a
// fleet timeline.
const CoordNode = "coord"

// Event is one trace record. It is a plain value: emitting one
// allocates nothing beyond the ring slot it is copied into.
type Event struct {
	// Seq is the tracer-assigned sequence number (total events emitted
	// before this one, including any since overwritten).
	Seq uint64
	// At is the event timestamp. The zero value is replaced with the
	// tracer clock's current time at Emit.
	At time.Time
	// Kind classifies the event.
	Kind Kind
	// Name labels the source: the job name for team and scheduler
	// events, empty for an unlabeled team.
	Name string
	// Worker is the emitting worker's index, or -1 for team- and
	// scheduler-level events.
	Worker int
	// Node identifies the process of a fleet timeline the event
	// belongs to. A worker daemon never sets it, so single-node traces
	// leave it empty: cluster.ReadTimeline tags every event it reads
	// from a worker with the ID the coordinator registered the worker
	// under, and the coordinator stamps its own events CoordNode (its
	// step_rpc spans carry the ID of the worker they time).
	Node string
	// Trace is the coordinator-assigned solve id correlating events
	// across nodes: every shard RPC carries it, so worker-side spans
	// join the originating cluster solve. Empty outside cluster
	// solves.
	Trace string
	// Epoch is the lockstep step epoch within Trace (the step index
	// the event belongs to). Meaningful only when Trace is set.
	Epoch int64
	// Dur is the span duration for span-shaped kinds (region end,
	// barrier, chunk); zero for instantaneous events.
	Dur time.Duration
	// A, B and C are kind-specific arguments; see the Kind constants.
	// C carries the job's requested parallelism M on resize and
	// preempt events, so occupancy analysis can bind a resize to its
	// loop even when the original grant event has been overwritten.
	A, B, C int64
}

// Tracer records events into a fixed-capacity ring buffer.
type Tracer struct {
	enabled atomic.Bool
	clock   simclock.Clock

	mu       sync.Mutex
	capacity int
	buf      []Event // ring storage, nil until the first Enable, then len(buf) == capacity
	n        uint64  // total events ever emitted
}

// NewTracer creates a disabled tracer holding up to capacity events
// (capacity < 1 is clamped to 1). clock stamps events; nil defaults to
// the wall clock. The ring is allocated at the first Enable: a tracer
// that is never enabled costs a few words, however large its capacity.
func NewTracer(capacity int, clock simclock.Clock) *Tracer {
	if clock == nil {
		clock = simclock.Real{}
	}
	return &Tracer{clock: clock, capacity: max(capacity, 1)}
}

// Enabled reports whether the tracer is recording. A nil tracer is
// permanently disabled. Instrumented code checks this before reading
// timestamps or constructing events, which is what makes the disabled
// path allocation-free.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// Enable starts recording, allocating the ring the first time. Events
// held from an earlier enabled window are kept.
func (t *Tracer) Enable() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.buf == nil {
		t.buf = make([]Event, t.capacity)
	}
	t.mu.Unlock()
	t.enabled.Store(true)
}

// Disable stops recording. Events emitted by sites that passed their
// Enabled check just before the flip may still land; the ring simply
// records them.
func (t *Tracer) Disable() {
	if t != nil {
		t.enabled.Store(false)
	}
}

// Now reads the tracer's clock (zero time on a nil tracer). Span
// instrumentation uses it so virtual-clock tests see simulated time.
func (t *Tracer) Now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.clock.Now()
}

// Emit records e if the tracer is enabled, stamping e.At with the
// tracer clock when the caller left it zero and assigning e.Seq.
func (t *Tracer) Emit(e Event) {
	if !t.Enabled() {
		return
	}
	if e.At.IsZero() {
		e.At = t.clock.Now()
	}
	t.mu.Lock()
	e.Seq = t.n
	t.buf[t.n%uint64(t.capacity)] = e
	t.n++
	t.mu.Unlock()
}

// Len returns the number of events currently held (at most the
// capacity).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return int(min(t.n, uint64(t.capacity)))
}

// Total returns the number of events ever emitted, including those
// already overwritten.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Dropped returns how many events were overwritten before export.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n - min(t.n, uint64(t.capacity))
}

// Reset discards all recorded events and restarts the sequence
// counter, giving profiling windows a clean buffer.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.buf {
		t.buf[i] = Event{}
	}
	t.n = 0
}

// Events returns the recorded events, oldest first. It is the raw
// snapshot: no drop marker is synthesized (use EventsSince for cursor
// semantics and truncation marking).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.snapshotLocked()
}

// EventsSince returns the held events with Seq >= since, oldest first,
// plus the number of matching events that were already overwritten by
// ring wraparound before this read. When dropped > 0 the returned
// slice begins with a synthetic KindTraceDropped marker (Seq = since,
// A = dropped, stamped with the first surviving event's timestamp) so
// downstream consumers see the truncation in-band.
//
// Cursor protocol: a client that has processed events up to sequence s
// calls EventsSince(s+1); the next cursor is lastEvent.Seq+1.
func (t *Tracer) EventsSince(since uint64) (events []Event, dropped uint64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	snap := t.snapshotLocked()
	t.mu.Unlock()
	// snap holds the ring's live window [first, t.n); everything in
	// [since, first) is gone.
	if len(snap) == 0 {
		return nil, 0
	}
	first := snap[0].Seq
	if since > first {
		// Skip events the caller has already seen.
		skip := since - first
		if skip >= uint64(len(snap)) {
			return nil, 0
		}
		return snap[skip:], 0
	}
	dropped = first - since
	if dropped == 0 {
		return snap, 0
	}
	out := make([]Event, 0, len(snap)+1)
	out = append(out, DropMarker(since, dropped, snap[0].At))
	out = append(out, snap...)
	return out, dropped
}

// NextCursor returns the cursor to resume from after processing a
// batch returned by EventsSince(since): one past the last non-marker
// event's Seq, or since unchanged when the batch held none.
func NextCursor(events []Event, since uint64) uint64 {
	for i := len(events) - 1; i >= 0; i-- {
		if events[i].Kind != KindTraceDropped {
			return events[i].Seq + 1
		}
	}
	return since
}

// DropMarker builds the synthetic trace_dropped event injected when a
// read window lost events to ring wraparound: Seq is the sequence the
// window started at, A the number of events dropped.
func DropMarker(since, dropped uint64, at time.Time) Event {
	return Event{Seq: since, At: at, Kind: KindTraceDropped, Worker: -1, A: int64(dropped)}
}

// snapshotLocked copies the live ring contents in order; caller holds
// t.mu.
func (t *Tracer) snapshotLocked() []Event {
	capacity := uint64(t.capacity)
	if t.n == 0 {
		return nil
	}
	if t.n <= capacity {
		out := make([]Event, t.n)
		copy(out, t.buf[:t.n])
		return out
	}
	start := t.n % capacity
	out := make([]Event, 0, capacity)
	out = append(out, t.buf[start:]...)
	out = append(out, t.buf[:start]...)
	return out
}

// eventJSON is the JSONL wire form of an Event.
type eventJSON struct {
	Seq    uint64 `json:"seq"`
	At     string `json:"at"`
	Kind   string `json:"kind"`
	Name   string `json:"name,omitempty"`
	Worker int    `json:"worker"`
	Node   string `json:"node,omitempty"`
	Trace  string `json:"trace,omitempty"`
	Epoch  int64  `json:"epoch,omitempty"`
	DurNs  int64  `json:"dur_ns,omitempty"`
	A      int64  `json:"a,omitempty"`
	B      int64  `json:"b,omitempty"`
	C      int64  `json:"c,omitempty"`
}

// MarshalJSON encodes the event in the JSONL wire form (snake_case
// kind, RFC3339Nano timestamp, duration in nanoseconds).
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(eventJSON{
		Seq:    e.Seq,
		At:     e.At.Format(time.RFC3339Nano),
		Kind:   e.Kind.String(),
		Name:   e.Name,
		Worker: e.Worker,
		Node:   e.Node,
		Trace:  e.Trace,
		Epoch:  e.Epoch,
		DurNs:  e.Dur.Nanoseconds(),
		A:      e.A,
		B:      e.B,
		C:      e.C,
	})
}

// UnmarshalJSON decodes the JSONL wire form back into an Event, so
// exported traces can be re-analyzed offline (cmd/tracetool).
func (e *Event) UnmarshalJSON(b []byte) error {
	var j eventJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	k, err := ParseKind(j.Kind)
	if err != nil {
		return err
	}
	at, err := time.Parse(time.RFC3339Nano, j.At)
	if err != nil {
		return fmt.Errorf("obs: event timestamp %q: %w", j.At, err)
	}
	*e = Event{
		Seq:    j.Seq,
		At:     at,
		Kind:   k,
		Name:   j.Name,
		Worker: j.Worker,
		Node:   j.Node,
		Trace:  j.Trace,
		Epoch:  j.Epoch,
		Dur:    time.Duration(j.DurNs),
		A:      j.A,
		B:      j.B,
		C:      j.C,
	}
	return nil
}

// WriteEventsJSONL writes events as JSONL, one JSON object per line —
// the GET /trace wire format and the file format of every exported
// trace, from one tracer's ring or a merged multi-node timeline.
func WriteEventsJSONL(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSONL parses a JSONL trace (the WriteEventsJSONL format) back into
// events. Blank lines are skipped; any malformed line is an error.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	return out, nil
}
