package cachesim

import "fmt"

// Scratch-discipline simulation (§4, concept 4). The original vector
// F3D had to process one plane at a time, so its scratch arrays were
// proportional to a plane of data and "were unlikely to fit into even
// the largest caches"; the tuned code resized them "to hold just a
// single row or column of a single plane", so they lock into cache.
// ScratchTrace replays the two disciplines' memory behaviour against a
// simulated cache and quantifies the miss-rate gap that produced the
// paper's >10x serial speedup on small-cache machines.

// ScratchConfig describes one zone-sweep's scratch usage.
type ScratchConfig struct {
	// Zone dimensions (points).
	JMax, KMax, LMax int
	// ScratchFloatsPerPoint is how many float64 of scratch each grid
	// point of the processing unit needs (eigensystems + characteristic
	// variables + bands ≈ 85 in this repository's solver).
	ScratchFloatsPerPoint int
	// ReusePasses is how many passes the algorithm makes over the
	// scratch of one processing unit (transform, per-component solves,
	// back-transform).
	ReusePasses int
	// Cache geometry.
	CacheBytes, LineBytes, Ways int
}

// DefaultScratchConfig models the J-sweep of a zone with this
// repository's scratch density on a given cache size.
func DefaultScratchConfig(jmax, kmax, lmax, cacheBytes int) ScratchConfig {
	return ScratchConfig{
		JMax: jmax, KMax: kmax, LMax: lmax,
		ScratchFloatsPerPoint: 85,
		ReusePasses:           7, // eig, w, 5 band/solve passes, back-transform
		CacheBytes:            cacheBytes,
		LineBytes:             128,
		Ways:                  2,
	}
}

// Discipline selects the scratch-array sizing.
type Discipline int

const (
	// PlaneScratch sizes scratch for a whole J-K plane (the vector
	// original).
	PlaneScratch Discipline = iota
	// PencilScratch sizes scratch for a single J line (the tuned code).
	PencilScratch
)

// String implements fmt.Stringer.
func (d Discipline) String() string {
	names := [...]string{
		"plane-scratch (vector)", "pencil-scratch (cache-tuned)",
	}
	if d >= 0 && int(d) < len(names) {
		return names[d]
	}
	return fmt.Sprintf("Discipline(%d)", int(d))
}

// ScratchReport summarizes a scratch-discipline trace.
type ScratchReport struct {
	Discipline   Discipline
	ScratchBytes int // scratch working set of one processing unit
	Accesses     uint64
	Misses       uint64
	MissRate     float64
	FitsInCache  bool
}

// ScratchTrace simulates one J-direction sweep of the zone under the
// given discipline: for every processing unit (one J-K plane, or one J
// pencil), the unit's scratch is swept ReusePasses times. Misses are
// counted on the configured cache; the field data itself is assumed
// streamed (it misses either way and cancels in the comparison), so the
// trace isolates exactly the scratch-reuse effect the paper tuned.
func ScratchTrace(cfg ScratchConfig, d Discipline) ScratchReport {
	if cfg.JMax < 1 || cfg.KMax < 1 || cfg.LMax < 1 {
		panic(fmt.Sprintf("cachesim: ScratchTrace bad dims %d/%d/%d", cfg.JMax, cfg.KMax, cfg.LMax))
	}
	if cfg.ScratchFloatsPerPoint < 1 || cfg.ReusePasses < 1 {
		panic("cachesim: ScratchTrace needs scratch floats and passes >= 1")
	}
	var unitPoints, units int
	switch d {
	case PlaneScratch:
		unitPoints = cfg.JMax * cfg.KMax
		units = cfg.LMax
	case PencilScratch:
		unitPoints = cfg.JMax
		units = cfg.KMax * cfg.LMax
	default:
		panic(fmt.Sprintf("cachesim: unknown discipline %v", d))
	}
	scratchBytes := unitPoints * cfg.ScratchFloatsPerPoint * 8
	c := NewCache(cfg.CacheBytes, cfg.LineBytes, cfg.Ways)
	// Every unit reuses the same scratch allocation (as real code does),
	// so consecutive units find it warm when it fits.
	for u := 0; u < units; u++ {
		for pass := 0; pass < cfg.ReusePasses; pass++ {
			for b := 0; b < scratchBytes; b += 8 {
				c.Access(uint64(b))
			}
		}
	}
	return ScratchReport{
		Discipline:   d,
		ScratchBytes: scratchBytes,
		Accesses:     c.Accesses(),
		Misses:       c.Misses(),
		MissRate:     c.MissRate(),
		FitsInCache:  scratchBytes <= cfg.CacheBytes,
	}
}

// ScratchSpeedupEstimate returns the predicted serial speedup of the
// pencil discipline over the plane discipline when a cache miss costs
// missCycles and a hit hitCycles: the ratio of per-access average
// costs. It isolates the memory-system share of the paper's measured
// >10x tuning gain.
func ScratchSpeedupEstimate(plane, pencil ScratchReport, hitCycles, missCycles float64) float64 {
	if hitCycles <= 0 || missCycles <= hitCycles {
		panic(fmt.Sprintf("cachesim: need missCycles > hitCycles > 0, got %g/%g", hitCycles, missCycles))
	}
	cost := func(r ScratchReport) float64 {
		return hitCycles + r.MissRate*(missCycles-hitCycles)
	}
	return cost(plane) / cost(pencil)
}
