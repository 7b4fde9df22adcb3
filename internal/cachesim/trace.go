package cachesim

import "fmt"

// Ordering identifies one of the Example 4 access orderings for the
// parallel traversal of a 3-D array A(JMAX,KMAX,LMAX) stored J-fastest.
type Ordering int

const (
	// OrderingIdeal is Example 4(a): C$doacross over L, loops L-K-J, so
	// each processor walks a contiguous slab in storage order.
	OrderingIdeal Ordering = iota
	// OrderingAcceptable is Example 4(b): C$doacross over K with loop
	// order K-L-J — unit-stride inner runs, but each processor's runs
	// are scattered across the whole array.
	OrderingAcceptable
	// OrderingUnacceptable is Example 4(c): C$doacross over J, batching
	// BUFFER(K) = A(J,K,L) — a STRIDE-N gather in which every processor
	// touches every page of the array, the pattern whose page contention
	// the paper could never cure on some systems.
	OrderingUnacceptable
)

// String implements fmt.Stringer.
func (o Ordering) String() string {
	names := [...]string{
		"ideal (4a: doacross L, loops L-K-J)", "acceptable (4b: doacross K, loops K-L-J)",
		"unacceptable (4c: doacross J, STRIDE-N gather)",
	}
	if o >= 0 && int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("Ordering(%d)", int(o))
}

// TraceConfig sets up an Example 4 trace.
type TraceConfig struct {
	Procs int
	// Per-processor cache parameters.
	CacheBytes, LineBytes, Ways int
	// TLB parameters.
	TLBEntries int
	// NUMA layout.
	Nodes, ProcsPerNode, PageBytes int
	// Array dimensions (elements are 8-byte float64, J fastest).
	JMax, KMax, LMax int
}

// DefaultTraceConfig returns a small Origin-2000-flavored configuration
// suitable for tests and the contention demo.
func DefaultTraceConfig(procs int) TraceConfig {
	nodes := procs / 2
	if nodes < 1 {
		nodes = 1
	}
	return TraceConfig{
		Procs:      procs,
		CacheBytes: 32 << 10, LineBytes: 128, Ways: 2,
		TLBEntries: 48,
		Nodes:      nodes, ProcsPerNode: 2, PageBytes: 4 << 10,
		JMax: 64, KMax: 64, LMax: 64,
	}
}

// Report aggregates what the trace observed.
type Report struct {
	Ordering      Ordering
	Accesses      uint64
	CacheMisses   uint64
	TLBMisses     uint64
	CacheMissRate float64
	TLBMissRate   float64
	// Page-sharing statistics across processors (the §7 contention
	// signal: "data from the same page being shared by multiple
	// processors").
	PagesTouched       int
	AvgSharersPerPage  float64
	MaxSharers         int
	SharedPageFraction float64 // pages touched by ≥2 processors
	// RemoteAccessFraction is the fraction of accesses whose page is
	// homed on a different node than the accessing processor.
	RemoteAccessFraction float64
	// Cache-line sharing statistics: on a cache-coherent SMP, lines
	// touched by several processors cost coherence traffic even when the
	// processors use disjoint words (false sharing). The paper's tuned
	// code avoids this by giving each processor contiguous slabs.
	LinesTouched       int
	AvgSharersPerLine  float64
	SharedLineFraction float64
}

// Trace runs the Example 4 ordering through per-processor caches and
// TLBs and collects sharing statistics. The parallel loop is dealt in
// static blocks, as C$doacross does.
func Trace(cfg TraceConfig, ord Ordering) Report {
	if cfg.Procs < 1 {
		panic(fmt.Sprintf("cachesim: Trace needs >= 1 processor, got %d", cfg.Procs))
	}
	if cfg.JMax < 1 || cfg.KMax < 1 || cfg.LMax < 1 {
		panic(fmt.Sprintf("cachesim: Trace bad dims %d/%d/%d", cfg.JMax, cfg.KMax, cfg.LMax))
	}
	numa := NewNUMA(cfg.Nodes, cfg.ProcsPerNode, cfg.PageBytes)
	caches := make([]*Cache, cfg.Procs)
	tlbs := make([]*TLB, cfg.Procs)
	for p := range caches {
		caches[p] = NewCache(cfg.CacheBytes, cfg.LineBytes, cfg.Ways)
		tlbs[p] = NewTLB(cfg.TLBEntries, cfg.PageBytes)
	}
	pageSharers := make(map[uint64]map[int]bool)
	lineSharers := make(map[uint64]map[int]bool)
	var remote, total uint64

	addr := func(j, k, l int) uint64 {
		return uint64((l*cfg.KMax+k)*cfg.JMax+j) * 8
	}
	access := func(proc int, a uint64) {
		caches[proc].Access(a)
		tlbs[proc].Access(a)
		pg := numa.Page(a)
		s := pageSharers[pg]
		if s == nil {
			s = make(map[int]bool)
			pageSharers[pg] = s
		}
		s[proc] = true
		ln := a / uint64(cfg.LineBytes)
		ls := lineSharers[ln]
		if ls == nil {
			ls = make(map[int]bool)
			lineSharers[ln] = ls
		}
		ls[proc] = true
		total++
		if numa.HomeNode(a) != numa.NodeOf(proc) {
			remote++
		}
	}

	block := func(n, procs, p int) (lo, hi int) {
		q, r := n/procs, n%procs
		if p < r {
			lo = p * (q + 1)
			return lo, lo + q + 1
		}
		lo = r*(q+1) + (p-r)*q
		return lo, lo + q
	}

	for p := 0; p < cfg.Procs; p++ {
		switch ord {
		case OrderingIdeal:
			lo, hi := block(cfg.LMax, cfg.Procs, p)
			for l := lo; l < hi; l++ {
				for k := 0; k < cfg.KMax; k++ {
					for j := 0; j < cfg.JMax; j++ {
						access(p, addr(j, k, l))
					}
				}
			}
		case OrderingAcceptable:
			lo, hi := block(cfg.KMax, cfg.Procs, p)
			for k := lo; k < hi; k++ {
				for l := 0; l < cfg.LMax; l++ {
					for j := 0; j < cfg.JMax; j++ {
						access(p, addr(j, k, l))
					}
				}
			}
		case OrderingUnacceptable:
			lo, hi := block(cfg.JMax, cfg.Procs, p)
			for j := lo; j < hi; j++ {
				for l := 0; l < cfg.LMax; l++ {
					for k := 0; k < cfg.KMax; k++ {
						access(p, addr(j, k, l))
					}
				}
			}
		default:
			panic(fmt.Sprintf("cachesim: unknown ordering %v", ord))
		}
	}

	rep := Report{Ordering: ord, Accesses: total}
	for p := 0; p < cfg.Procs; p++ {
		rep.CacheMisses += caches[p].Misses()
		rep.TLBMisses += tlbs[p].Misses()
	}
	if total > 0 {
		rep.CacheMissRate = float64(rep.CacheMisses) / float64(total)
		rep.TLBMissRate = float64(rep.TLBMisses) / float64(total)
		rep.RemoteAccessFraction = float64(remote) / float64(total)
	}
	rep.PagesTouched = len(pageSharers)
	shared := 0
	sumSharers := 0
	for _, s := range pageSharers {
		if len(s) > rep.MaxSharers {
			rep.MaxSharers = len(s)
		}
		if len(s) >= 2 {
			shared++
		}
		sumSharers += len(s)
	}
	if rep.PagesTouched > 0 {
		rep.AvgSharersPerPage = float64(sumSharers) / float64(rep.PagesTouched)
		rep.SharedPageFraction = float64(shared) / float64(rep.PagesTouched)
	}
	rep.LinesTouched = len(lineSharers)
	sharedLines, sumLineSharers := 0, 0
	for _, s := range lineSharers {
		if len(s) >= 2 {
			sharedLines++
		}
		sumLineSharers += len(s)
	}
	if rep.LinesTouched > 0 {
		rep.AvgSharersPerLine = float64(sumLineSharers) / float64(rep.LinesTouched)
		rep.SharedLineFraction = float64(sharedLines) / float64(rep.LinesTouched)
	}
	return rep
}
