package f3d

import (
	"fmt"
	"strings"

	"repro/internal/parloop"
)

// ValidationReport is the outcome of the §6-style validation ladder:
// the same problem advanced by every code shape, with the invariants
// the paper's project enforced ("several stages ... ranging from quick
// and dirty tests involving only a few time steps, to more elaborate
// tests performed on fully converged solutions").
type ValidationReport struct {
	Steps   int
	Workers int
	// VectorVsCache is the max pointwise difference between the
	// vector-style and cache-tuned variants (must be exactly 0).
	VectorVsCache float64
	// SerialVsParallel is the max pointwise difference between the
	// serial and parallel cache solvers (must be exactly 0).
	SerialVsParallel float64
	// MergedVsPerPhase compares the two parallel region structures
	// (must be exactly 0).
	MergedVsPerPhase float64
	// ResidualHistoryDiff is the largest residual-history discrepancy
	// across all of the above (must be exactly 0).
	ResidualHistoryDiff float64
}

// OK reports whether every invariant held exactly.
func (r ValidationReport) OK() bool {
	return r.VectorVsCache == 0 && r.SerialVsParallel == 0 &&
		r.MergedVsPerPhase == 0 && r.ResidualHistoryDiff == 0
}

// String formats the report for humans.
func (r ValidationReport) String() string {
	var b strings.Builder
	status := func(v float64) string {
		if v == 0 {
			return "OK (bitwise)"
		}
		return fmt.Sprintf("FAIL (max diff %g)", v)
	}
	fmt.Fprintf(&b, "validation over %d steps, %d workers:\n", r.Steps, r.Workers)
	fmt.Fprintf(&b, "  vector vs cache variant:    %s\n", status(r.VectorVsCache))
	fmt.Fprintf(&b, "  serial vs parallel:         %s\n", status(r.SerialVsParallel))
	fmt.Fprintf(&b, "  merged vs per-phase regions: %s\n", status(r.MergedVsPerPhase))
	fmt.Fprintf(&b, "  residual histories:         %s\n", status(r.ResidualHistoryDiff))
	return b.String()
}

// CrossValidate runs the same pulse problem through the vector variant,
// the serial cache variant, the parallel cache variant (per-phase and
// merged regions) and compares everything. It is the repository's
// automated stand-in for the paper's validation-and-verification
// exercise, usable from tests and from `cmd/f3d -validate`.
func CrossValidate(cfg Config, steps, workers int) (ValidationReport, error) {
	rep := ValidationReport{Steps: steps, Workers: workers}
	if steps < 1 {
		return rep, fmt.Errorf("f3d: CrossValidate needs steps >= 1, got %d", steps)
	}
	if workers < 2 {
		return rep, fmt.Errorf("f3d: CrossValidate needs workers >= 2, got %d", workers)
	}

	vec, err := NewVectorSolver(cfg)
	if err != nil {
		return rep, err
	}
	serial, err := NewCacheSolver(cfg, CacheOptions{})
	if err != nil {
		return rep, err
	}
	defer serial.Close()
	team := parloop.NewTeam(workers)
	defer team.Close()
	par, err := NewCacheSolver(cfg, CacheOptions{Team: team})
	if err != nil {
		return rep, err
	}
	defer par.Close()
	mergedShape := DefaultShape()
	mergedShape.Merged = true
	merged, err := NewCacheSolver(cfg, CacheOptions{Team: team, Shape: &mergedShape})
	if err != nil {
		return rep, err
	}
	defer merged.Close()

	solvers := []Solver{vec, serial, par, merged}
	for _, s := range solvers {
		InitPulse(s, 0.02)
	}
	hist := make([][]float64, len(solvers))
	for i := 0; i < steps; i++ {
		for si, s := range solvers {
			st := s.Step()
			hist[si] = append(hist[si], st.Residual)
		}
	}
	rep.VectorVsCache = MaxPointwiseDiff(vec, serial)
	rep.SerialVsParallel = MaxPointwiseDiff(serial, par)
	rep.MergedVsPerPhase = MaxPointwiseDiff(par, merged)
	for si := 1; si < len(solvers); si++ {
		for i := 0; i < steps; i++ {
			d := hist[si][i] - hist[0][i]
			if d < 0 {
				d = -d
			}
			if d > rep.ResidualHistoryDiff {
				rep.ResidualHistoryDiff = d
			}
		}
	}
	return rep, nil
}
