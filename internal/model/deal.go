package model

import (
	"fmt"
	"slices"

	"repro/internal/parloop"
)

// Overheads are the per-chunk costs of dealing a loop, in the unit of
// the cost callback: Chunk is paid by every chunk on every schedule,
// Deal in addition by every chunk an on-demand schedule (Dynamic,
// Guided) takes from the shared counter.
type Overheads struct {
	Deal, Chunk float64
}

// Outcome is how one execution of a loop spread over its workers.
type Outcome struct {
	// Busy is each worker's busy time, overheads included.
	Busy []float64
	// Makespan is the largest Busy: the loop's wall time without the
	// fork-join.
	Makespan float64
	// Work is the summed cost of all chunks, overheads excluded.
	Work   float64
	Chunks int
	// Deals counts the atomic deal operations (Dynamic and Guided only).
	Deals int
}

// Uniform returns the cost of a loop whose work is spread evenly over
// its n units: a chunk [lo, hi) costs work·(hi−lo)/n.
func Uniform(work float64, n int) func(lo, hi int) float64 {
	return func(lo, hi int) float64 { return work * float64(hi-lo) / float64(n) }
}

// Deal simulates how parloop deals a loop of n units to workers workers
// under sched and chunk (Team.ForSchedW's arguments, with the same
// clamping of workers and chunk to at least 1), charging each chunk
// [lo, hi) cost(lo, hi) plus the overheads o:
//
//   - Static: one contiguous parloop.StaticRange per worker;
//   - StaticCyclic: chunks round-robin;
//   - Dynamic: chunks to the earliest-free worker;
//   - Guided: parloop.GuidedChunk sizes to the earliest-free worker.
//
// Uniform cost at Static with no overheads is the paper's stair-step
// model: Makespan = work·ceil(n/workers)/n (Table 3).
func Deal(n, workers int, sched parloop.Schedule, chunk int, cost func(lo, hi int) float64, o Overheads) Outcome {
	p := max(workers, 1)
	chunk = max(chunk, 1)
	busy := make([]float64, p)
	chunks, deals := 0, 0
	work := 0.0

	// assign adds a chunk to a fixed worker (static dealing).
	assign := func(w, lo, hi int) {
		c := cost(lo, hi)
		work += c
		busy[w] += o.Chunk + c
		chunks++
	}
	// deal adds a chunk to the earliest-free worker (on-demand
	// dealing: the worker that frees first takes the next chunk, ties
	// to the lowest index — exactly the greedy order the shared
	// atomic counter realizes).
	deal := func(lo, hi int) {
		w := 0
		for k := 1; k < p; k++ {
			if busy[k] < busy[w] {
				w = k
			}
		}
		c := cost(lo, hi)
		work += c
		busy[w] += o.Deal + o.Chunk + c
		chunks++
		deals++
	}

	switch sched {
	case parloop.Static:
		for w := 0; w < p; w++ {
			lo, hi := parloop.StaticRange(n, p, w)
			if lo < hi {
				assign(w, lo, hi)
			}
		}
	case parloop.StaticCyclic:
		for w := 0; w < p; w++ {
			for lo := w * chunk; lo < n; lo += p * chunk {
				hi := min(lo+chunk, n)
				assign(w, lo, hi)
			}
		}
	case parloop.Dynamic:
		for lo := 0; lo < n; lo += chunk {
			deal(lo, min(lo+chunk, n))
		}
	case parloop.Guided:
		for lo := 0; lo < n; {
			hi := lo + parloop.GuidedChunk(n-lo, p, chunk)
			deal(lo, hi)
			lo = hi
		}
	default:
		panic(fmt.Sprintf("model: Deal: unknown schedule %v", sched))
	}

	return Outcome{Busy: busy, Makespan: slices.Max(busy), Work: work, Chunks: chunks, Deals: deals}
}
