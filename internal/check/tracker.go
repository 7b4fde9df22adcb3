// Package check is the correctness-verification subsystem of the
// reproduction. The paper's central claim (§1, §5) is that loop-level
// parallelization leaves the algorithm unchanged: the parallel code
// must produce the serial code's answers, with the serial code's
// convergence behaviour. This package turns that claim into two
// machine-checked obligations:
//
//   - The differential conformance harness (conformance.go) runs every
//     registered kernel — f3d solver steps, euler sweeps, reductions,
//     the paper's Example 1–3 loop structures — across the full matrix
//     of {team size} × {mid-run Resize} and compares the output against
//     the serial reference: bitwise for order-invariant kernels,
//     ULP-bounded where regrouping legitimately reorders floating-point
//     sums. Failures are shrunk to minimized repro cases.
//
//   - The dynamic loop-dependence checker (this file) is a
//     happens-before race detector specialized to the fork-join/
//     barrier structure of parloop: opt-in Tracked arrays record every
//     read and write with the accessing worker and the team's barrier
//     epoch (parloop.Team.Phase), and two accesses to the same element
//     from different workers in the same epoch — at least one a write
//     — are a loop-carried dependence that the C$doacross-style
//     parallelization missed. Unlike go test -race, detection does not
//     depend on the racy workers actually interleaving: any execution
//     of the racy loop is flagged.
package check

import (
	"fmt"
	"sync"

	"repro/internal/parloop"
)

// Access is one recorded shadow-memory access.
type Access struct {
	// Worker is the parloop worker index that performed the access.
	Worker int
	// Phase is the team's barrier epoch at the access
	// (parloop.Team.Phase).
	Phase uint64
	// Write reports whether the access was a store.
	Write bool
}

func (a Access) String() string {
	op := "read"
	if a.Write {
		op = "write"
	}
	return fmt.Sprintf("%s by worker %d in phase %d", op, a.Worker, a.Phase)
}

// Race is one detected loop-carried dependence: two accesses to the
// same array element by different workers within the same barrier
// epoch, at least one of them a write.
type Race struct {
	// Array is the tracked array's registered name.
	Array string
	// Index is the conflicting element.
	Index int
	// Prev is the earlier recorded access, Cur the one that exposed
	// the conflict.
	Prev, Cur Access
}

// Kind classifies the race: "write-write", "write-read" (write then
// read) or "read-write" (read then write).
func (r Race) Kind() string {
	switch {
	case r.Prev.Write && r.Cur.Write:
		return "write-write"
	case r.Prev.Write:
		return "write-read"
	default:
		return "read-write"
	}
}

func (r Race) String() string {
	return fmt.Sprintf("%s race on %s[%d]: %v conflicts with %v (no barrier between them)",
		r.Kind(), r.Array, r.Index, r.Cur, r.Prev)
}

// Tracker owns the shadow memory of one checked execution. It is bound
// to the team whose barrier epochs define the happens-before relation;
// all Tracked arrays used in a run must come from one Tracker, and the
// run's parallel regions must execute on that team.
type Tracker struct {
	team *parloop.Team

	mu     sync.Mutex
	arrays []*TrackedF64
	races  []Race
	limit  int
}

// NewTracker creates a tracker bound to the team. At most limit races
// are recorded per run (further conflicts on already-reported elements
// are suppressed element-wise regardless); limit <= 0 defaults to 100.
func NewTracker(team *parloop.Team, limit int) *Tracker {
	if limit <= 0 {
		limit = 100
	}
	return &Tracker{team: team, limit: limit}
}

// Races returns a copy of the races detected so far.
func (tk *Tracker) Races() []Race {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	return append([]Race(nil), tk.races...)
}

// Reset clears the recorded races and every tracked array's shadow
// state (the data itself is untouched), so one tracker can check
// several runs.
func (tk *Tracker) Reset() {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	tk.races = tk.races[:0]
	for _, a := range tk.arrays {
		for i := range a.cells {
			a.cells[i] = cell{}
		}
	}
}

func (tk *Tracker) record(r Race) {
	tk.mu.Lock()
	if len(tk.races) < tk.limit {
		tk.races = append(tk.races, r)
	}
	tk.mu.Unlock()
}

// Float64s allocates a zeroed tracked array of length n.
func (tk *Tracker) Float64s(name string, n int) *TrackedF64 {
	return tk.Track(name, make([]float64, n))
}

// Track wraps an existing slice in shadow-memory instrumentation. The
// slice must not be accessed directly while the tracked run executes.
func (tk *Tracker) Track(name string, data []float64) *TrackedF64 {
	a := &TrackedF64{
		tk:    tk,
		name:  name,
		data:  data,
		cells: make([]cell, len(data)),
	}
	tk.mu.Lock()
	tk.arrays = append(tk.arrays, a)
	tk.mu.Unlock()
	return a
}

// cell is one element's shadow state: the last write and the reads of
// the current read epoch.
type cell struct {
	wPhase  uint64
	wWorker int32
	hasW    bool

	rPhase  uint64
	rWorker int32
	rShared bool // more than one distinct reader in rPhase
	hasR    bool

	reported bool // one race per element is enough
}

// trackShards is the lock striping of a tracked array. Accesses to the
// same element always hit the same shard, so each element's shadow
// update plus data access is atomic; the striping also makes the
// underlying data accesses lock-ordered, so a logically racy kernel
// under instrumentation does not additionally trip Go's runtime race
// detector — the checker reports the dependence instead.
const trackShards = 64

// TrackedF64 is a dependence-instrumented float64 array. Every access
// names the worker performing it (WorkerCtx.ID supplies the index);
// serial code between regions accesses as worker 0.
type TrackedF64 struct {
	tk    *Tracker
	name  string
	data  []float64
	cells []cell
	mus   [trackShards]sync.Mutex
}

// Name returns the registered name.
func (a *TrackedF64) Name() string { return a.name }

// Len returns the array length.
func (a *TrackedF64) Len() int { return len(a.data) }

// Data returns the underlying slice, for inspection after the tracked
// run has finished.
func (a *TrackedF64) Data() []float64 { return a.data }

// Load records a read of element i by the worker and returns the
// value.
func (a *TrackedF64) Load(worker, i int) float64 {
	m := &a.mus[uint(i)%trackShards]
	m.Lock()
	a.note(worker, i, false)
	v := a.data[i]
	m.Unlock()
	return v
}

// Store records a write of element i by the worker and stores the
// value.
func (a *TrackedF64) Store(worker, i int, v float64) {
	m := &a.mus[uint(i)%trackShards]
	m.Lock()
	a.note(worker, i, true)
	a.data[i] = v
	m.Unlock()
}

// note updates element i's shadow state with an access by (worker,
// current phase) and reports any conflict. Caller holds the element's
// shard lock.
func (a *TrackedF64) note(worker, i int, write bool) {
	c := &a.cells[i]
	phase := a.tk.team.Epoch()
	cur := Access{Worker: worker, Phase: phase, Write: write}
	if write {
		switch {
		case c.hasW && c.wPhase == phase && int(c.wWorker) != worker:
			a.report(i, c, Access{Worker: int(c.wWorker), Phase: c.wPhase, Write: true}, cur)
		case c.hasR && c.rPhase == phase && (c.rShared || int(c.rWorker) != worker):
			a.report(i, c, Access{Worker: int(c.rWorker), Phase: c.rPhase}, cur)
		}
		c.hasW, c.wPhase, c.wWorker = true, phase, int32(worker)
		return
	}
	if c.hasW && c.wPhase == phase && int(c.wWorker) != worker {
		a.report(i, c, Access{Worker: int(c.wWorker), Phase: c.wPhase, Write: true}, cur)
	}
	if !c.hasR || c.rPhase != phase {
		c.hasR, c.rPhase, c.rWorker, c.rShared = true, phase, int32(worker), false
	} else if int(c.rWorker) != worker {
		c.rShared = true
	}
}

func (a *TrackedF64) report(i int, c *cell, prev, cur Access) {
	if c.reported {
		return
	}
	c.reported = true
	a.tk.record(Race{Array: a.name, Index: i, Prev: prev, Cur: cur})
}
