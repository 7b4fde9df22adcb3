package f3d

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/euler"
	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/parloop"
)

func testConfig(jmax, kmax, lmax int) Config {
	return DefaultConfig(grid.Single(jmax, kmax, lmax))
}

func newCache(t *testing.T, cfg Config, opts CacheOptions) *CacheSolver {
	t.Helper()
	s, err := NewCacheSolver(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// mergedCfg returns the production shape, merged into one region per
// zone step when merged is set.
func mergedCfg(merged bool) *StepShape {
	sh := DefaultShape()
	sh.Merged = merged
	return &sh
}

func newVector(t *testing.T, cfg Config) *VectorSolver {
	t.Helper()
	s, err := NewVectorSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestUniformFlowPreservedExactly(t *testing.T) {
	// Freestream initial data is an exact steady solution: the RHS is
	// identically zero and the solution must not change by a single bit.
	cfg := testConfig(9, 8, 7)
	for _, mk := range []struct {
		name string
		s    Solver
	}{
		{"cache-serial", newCache(t, cfg, CacheOptions{})},
		{"vector", newVector(t, cfg)},
	} {
		InitUniform(mk.s)
		want := cfg.Freestream.Cons()
		for step := 0; step < 5; step++ {
			st := mk.s.Step()
			if st.Residual != 0 {
				t.Errorf("%s step %d: residual %g, want exactly 0", mk.name, step, st.Residual)
			}
			if st.MaxDelta != 0 {
				t.Errorf("%s step %d: max delta %g, want exactly 0", mk.name, step, st.MaxDelta)
			}
		}
		zs := mk.s.Zones()[0]
		var buf [euler.NC]float64
		z := zs.Zone
		for l := 0; l < z.LMax; l++ {
			for k := 0; k < z.KMax; k++ {
				for j := 0; j < z.JMax; j++ {
					zs.Q.Point(j, k, l, buf[:])
					for c := 0; c < euler.NC; c++ {
						if buf[c] != want[c] {
							t.Fatalf("%s: point (%d,%d,%d) comp %d drifted: %g != %g",
								mk.name, j, k, l, c, buf[c], want[c])
						}
					}
				}
			}
		}
	}
}

func TestVectorAndCacheVariantsAgreeBitwise(t *testing.T) {
	// The paper requires parallelization and tuning "without introducing
	// any changes to the algorithm": the two code shapes must produce
	// identical floating-point results.
	cfg := testConfig(10, 9, 8)
	cs := newCache(t, cfg, CacheOptions{})
	vs := newVector(t, cfg)
	InitPulse(cs, 0.01)
	InitPulse(vs, 0.01)
	for step := 0; step < 8; step++ {
		sc := cs.Step()
		sv := vs.Step()
		if sc.Residual != sv.Residual {
			t.Fatalf("step %d: residuals differ: cache %.17g vs vector %.17g", step, sc.Residual, sv.Residual)
		}
		if d := MaxPointwiseDiff(cs, vs); d != 0 {
			t.Fatalf("step %d: solutions differ by %g", step, d)
		}
	}
}

func TestSerialAndParallelAgreeBitwise(t *testing.T) {
	cfg := testConfig(11, 9, 8)
	ref := newCache(t, cfg, CacheOptions{})
	InitPulse(ref, 0.01)
	refStats := make([]StepStats, 6)
	for i := range refStats {
		refStats[i] = ref.Step()
	}
	for _, workers := range []int{2, 3, 5} {
		for _, merged := range []bool{false, true} {
			team := parloop.NewTeam(workers)
			s := newCache(t, cfg, CacheOptions{Team: team, Shape: mergedCfg(merged)})
			InitPulse(s, 0.01)
			for i := range refStats {
				st := s.Step()
				if st.Residual != refStats[i].Residual {
					t.Errorf("workers=%d merged=%v step %d: residual %.17g != serial %.17g",
						workers, merged, i, st.Residual, refStats[i].Residual)
				}
				if st.MaxDelta != refStats[i].MaxDelta {
					t.Errorf("workers=%d merged=%v step %d: maxDelta %.17g != serial %.17g",
						workers, merged, i, st.MaxDelta, refStats[i].MaxDelta)
				}
			}
			if d := MaxPointwiseDiff(ref, s); d != 0 {
				t.Errorf("workers=%d merged=%v: solution differs from serial by %g", workers, merged, d)
			}
			team.Close()
		}
	}
}

func TestIncrementalParallelizationPreservesResults(t *testing.T) {
	// The paper parallelizes loops one at a time, validating at each
	// stage. Every subset of parallel phases must give the serial answer.
	cfg := testConfig(9, 8, 7)
	ref := newCache(t, cfg, CacheOptions{})
	InitPulse(ref, 0.02)
	for i := 0; i < 4; i++ {
		ref.Step()
	}
	phaseSets := []StepShape{
		{},
		{RHS: true},
		{RHS: true, SweepJK: true},
		DefaultShape(),
		{RHS: true, SweepJK: true, SweepL: true, BC: true},
		{BC: true},
		{SweepL: true},
	}
	team := parloop.NewTeam(3)
	defer team.Close()
	for _, ph := range phaseSets {
		s := newCache(t, cfg, CacheOptions{Team: team, Shape: &ph})
		InitPulse(s, 0.02)
		for i := 0; i < 4; i++ {
			s.Step()
		}
		if d := MaxPointwiseDiff(ref, s); d != 0 {
			t.Errorf("phases %+v: solution differs from serial by %g", ph, d)
		}
	}
}

func TestPulseDecaysTowardFreestream(t *testing.T) {
	// The implicit scheme must damp a smooth disturbance: the residual
	// after many steps is far below the initial residual (steady-state
	// convergence, the property the paper insists must be preserved).
	cfg := testConfig(12, 11, 10)
	s := newCache(t, cfg, CacheOptions{})
	InitPulse(s, 0.05)
	first := s.Step()
	if first.Residual <= 0 {
		t.Fatal("pulse produced zero residual")
	}
	var last StepStats
	for i := 0; i < 60; i++ {
		last = s.Step()
		if math.IsNaN(last.Residual) || math.IsInf(last.Residual, 0) {
			t.Fatalf("step %d: residual blew up: %g", i, last.Residual)
		}
	}
	if last.Residual > first.Residual/10 {
		t.Errorf("residual did not decay: first %g, after 60 steps %g", first.Residual, last.Residual)
	}
}

func TestExtrapolateBCStable(t *testing.T) {
	cfg := testConfig(9, 8, 7)
	cfg.BC = BCExtrapolate
	s := newCache(t, cfg, CacheOptions{})
	InitPulse(s, 0.02)
	for i := 0; i < 30; i++ {
		st := s.Step()
		if math.IsNaN(st.Residual) {
			t.Fatalf("step %d: NaN residual with extrapolation BC", i)
		}
	}
}

func TestMinimalZoneDimensions(t *testing.T) {
	// 3×3×3 has a single interior point: every sweep degenerates to a
	// 1×1 system. The solver must handle it without panicking.
	cfg := testConfig(3, 3, 3)
	cs := newCache(t, cfg, CacheOptions{})
	vs := newVector(t, cfg)
	InitPulse(cs, 0.01)
	InitPulse(vs, 0.01)
	for i := 0; i < 3; i++ {
		sc := cs.Step()
		sv := vs.Step()
		if sc.Residual != sv.Residual {
			t.Fatalf("step %d: variants disagree on 3³ zone", i)
		}
	}
}

func TestMultiZoneCase(t *testing.T) {
	c := grid.Scaled(grid.Paper1M(), 0.12) // three zones ≈ 11×9×8 max
	cfg := DefaultConfig(c)
	team := parloop.NewTeam(4)
	defer team.Close()
	serial := newCache(t, cfg, CacheOptions{})
	par := newCache(t, cfg, CacheOptions{Team: team})
	InitPulse(serial, 0.02)
	InitPulse(par, 0.02)
	for i := 0; i < 4; i++ {
		ss := serial.Step()
		sp := par.Step()
		if ss.Residual != sp.Residual {
			t.Fatalf("step %d: multi-zone serial/parallel residual mismatch", i)
		}
	}
	if d := MaxPointwiseDiff(serial, par); d != 0 {
		t.Fatalf("multi-zone solution mismatch: %g", d)
	}
	if len(serial.Zones()) != 3 {
		t.Fatalf("expected 3 zones, got %d", len(serial.Zones()))
	}
}

func TestConservationApproximate(t *testing.T) {
	// With freestream Dirichlet boundaries and a small internal pulse,
	// total conserved quantities change only slowly (the pulse drains
	// through the boundary): sanity check against gross conservation
	// bugs.
	cfg := testConfig(12, 10, 9)
	s := newCache(t, cfg, CacheOptions{})
	InitPulse(s, 0.01)
	before := s.Zones()[0].totalConserved()
	for i := 0; i < 10; i++ {
		s.Step()
	}
	after := s.Zones()[0].totalConserved()
	for c := 0; c < euler.NC; c++ {
		rel := math.Abs(after[c]-before[c]) / math.Max(1, math.Abs(before[c]))
		if rel > 0.01 {
			t.Errorf("component %d drifted %.3g%% in 10 steps", c, rel*100)
		}
	}
}

func TestStepStatsFlops(t *testing.T) {
	cfg := testConfig(9, 8, 7)
	s := newCache(t, cfg, CacheOptions{})
	InitUniform(s)
	st := s.Step()
	wantInterior := float64((9 - 2) * (8 - 2) * (7 - 2))
	if got, want := st.Flops, wantInterior*FlopsPerPoint(); got != want {
		t.Errorf("Flops = %g, want %g", got, want)
	}
	if s.Steps() != 1 {
		t.Errorf("Steps = %d, want 1", s.Steps())
	}
}

// TestFlopsPerPointFrozen: delivered MFLOPS (cmd/f3d, f3dc, the
// benchmark's mflops) is this count over wall time, so the count is the
// algorithm's and does not follow kernel tuning — see the constants.
func TestFlopsPerPointFrozen(t *testing.T) {
	if got := FlopsPerPoint(); got != 1148 {
		t.Errorf("FlopsPerPoint() = %g, want 1148: a sparser kernel is not a cheaper algorithm", got)
	}
}

func TestConfigValidation(t *testing.T) {
	good := testConfig(5, 5, 5)
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := good
	bad.Dt = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero Dt accepted")
	}
	bad = good
	bad.Freestream.Rho = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative density accepted")
	}
	bad = good
	bad.Eps4 = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative dissipation accepted")
	}
	bad = good
	bad.BC = BCKind(42)
	if err := bad.Validate(); err == nil {
		t.Error("unknown BC accepted")
	}
	bad = good
	bad.Case.Zones = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty case accepted")
	}
	if _, err := NewCacheSolver(bad, CacheOptions{}); err == nil {
		t.Error("NewCacheSolver accepted bad config")
	}
	if _, err := NewVectorSolver(bad); err == nil {
		t.Error("NewVectorSolver accepted bad config")
	}
}

func TestEstimateDt(t *testing.T) {
	cfg := testConfig(9, 8, 7)
	dt1 := EstimateDt(&cfg, 1)
	dt2 := EstimateDt(&cfg, 2)
	if dt1 <= 0 || dt2 != 2*dt1 {
		t.Errorf("EstimateDt not linear in CFL: %g, %g", dt1, dt2)
	}
	defer func() {
		if recover() == nil {
			t.Error("EstimateDt cfl<=0 should panic")
		}
	}()
	EstimateDt(&cfg, 0)
}

func TestSyncEventAccounting(t *testing.T) {
	// Per-phase mode opens 3 regions + 1 barrier per zone per step
	// (BC serial); merged mode opens 1 region + 5 barriers.
	cfg := testConfig(9, 8, 7)
	team := parloop.NewTeam(2)
	defer team.Close()

	s := newCache(t, cfg, CacheOptions{Team: team})
	InitUniform(s)
	team.ResetSyncEvents()
	s.Step()
	if got := team.SyncEvents(); got != 4 {
		t.Errorf("per-phase sync events = %d, want 4 (3 regions + 1 barrier)", got)
	}

	m := newCache(t, cfg, CacheOptions{Team: team, Shape: mergedCfg(true)})
	InitUniform(m)
	team.ResetSyncEvents()
	m.Step()
	if got := team.SyncEvents(); got != 6 {
		t.Errorf("merged sync events = %d, want 6 (1 region + 5 barriers)", got)
	}
}

func TestBCKindString(t *testing.T) {
	if BCFreestream.String() != "freestream" || BCExtrapolate.String() != "extrapolate" {
		t.Error("BCKind strings wrong")
	}
	if BCKind(9).String() != "BCKind(9)" {
		t.Error("unknown BCKind string wrong")
	}
}

func TestSolverPanicsOnCorruptState(t *testing.T) {
	// Failure injection: a non-physical state (negative density) must
	// stop the run with a clear panic, not propagate NaNs silently.
	cfg := testConfig(8, 8, 8)
	s := newCache(t, cfg, CacheOptions{})
	InitUniform(s)
	s.Step()
	zs := s.Zones()[0]
	bad := [euler.NC]float64{-1, 0, 0, 0, 1}
	zs.Q.SetPoint(3, 3, 3, bad[:])
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("corrupt state did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "density") {
			t.Errorf("panic message not diagnostic: %v", r)
		}
	}()
	s.Step()
}

// totalConserved returns the sum of each conserved component over the
// whole zone (a discrete conservation check for tests).
func (zs *ZoneState) totalConserved() linalg.Vec5 {
	z := zs.Zone
	var buf [euler.NC]float64
	var tot linalg.Vec5
	for l := 0; l < z.LMax; l++ {
		for k := 0; k < z.KMax; k++ {
			for j := 0; j < z.JMax; j++ {
				zs.Q.Point(j, k, l, buf[:])
				for c := 0; c < euler.NC; c++ {
					tot[c] += buf[c]
				}
			}
		}
	}
	return tot
}
