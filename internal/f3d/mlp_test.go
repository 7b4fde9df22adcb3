package f3d

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/parloop"
)

// newZoneTeams builds one team per zone and registers cleanup.
func newZoneTeams(t *testing.T, zones, workers int) []*parloop.Team {
	t.Helper()
	teams := make([]*parloop.Team, zones)
	for i := range teams {
		teams[i] = parloop.NewTeam(workers)
		t.Cleanup(teams[i].Close)
	}
	return teams
}

func TestMLPMatchesSequentialBitwise(t *testing.T) {
	// Zone-level (MLP) execution must give exactly the sequential
	// answer: zones are independent within a step once interface data
	// is captured.
	c := grid.Scaled(grid.Paper1M(), 0.12)
	cfg := DefaultConfig(c)
	ref := newCache(t, cfg, CacheOptions{})
	InitPulse(ref, 0.02)
	refStats := make([]StepStats, 5)
	for i := range refStats {
		refStats[i] = ref.Step()
	}
	for _, innerWorkers := range []int{1, 2} {
		for _, merged := range []bool{false, true} {
			mlp := newCache(t, cfg, CacheOptions{
				ZoneTeams: newZoneTeams(t, len(c.Zones), innerWorkers),
				Shape:     mergedCfg(merged),
			})
			InitPulse(mlp, 0.02)
			for i := range refStats {
				st := mlp.Step()
				if st.Residual != refStats[i].Residual {
					t.Errorf("inner=%d merged=%v step %d: residual %.17g != %.17g",
						innerWorkers, merged, i, st.Residual, refStats[i].Residual)
				}
				if st.MaxDelta != refStats[i].MaxDelta {
					t.Errorf("inner=%d merged=%v step %d: maxDelta mismatch", innerWorkers, merged, i)
				}
			}
			if d := MaxPointwiseDiff(ref, mlp); d != 0 {
				t.Errorf("inner=%d merged=%v: MLP solution differs by %g", innerWorkers, merged, d)
			}
		}
	}
}

func TestMLPWithZonalInterfaces(t *testing.T) {
	// Zones coupled by interfaces remain independent within a step (the
	// exchange is captured up front), so MLP must still match.
	c, ifaces := SplitAlongJ("z", 21, 9, 8, 10)
	cfg := DefaultConfig(c)
	cfg.Interfaces = ifaces
	ref := newCache(t, cfg, CacheOptions{})
	mlp := newCache(t, cfg, CacheOptions{
		ZoneTeams: newZoneTeams(t, 2, 2),
	})
	initPhysicalPulse(ref, []int{0, 10}, 21, 0.03)
	initPhysicalPulse(mlp, []int{0, 10}, 21, 0.03)
	for i := 0; i < 6; i++ {
		rr := ref.Step()
		rm := mlp.Step()
		if rr.Residual != rm.Residual {
			t.Fatalf("step %d: residual mismatch with interfaces", i)
		}
	}
	if d := MaxPointwiseDiff(ref, mlp); d != 0 {
		t.Fatalf("MLP zonal solution differs by %g", d)
	}
}

func TestMLPTeamCountValidation(t *testing.T) {
	c := grid.Scaled(grid.Paper1M(), 0.12)
	cfg := DefaultConfig(c)
	teams := newZoneTeams(t, 2, 1) // 2 teams for 3 zones
	if _, err := NewCacheSolver(cfg, CacheOptions{ZoneTeams: teams}); err == nil {
		t.Error("mismatched ZoneTeams length accepted")
	}
}

func TestMLPSyncStructure(t *testing.T) {
	// Zone-level sections add one outer sync event per step on top of
	// the per-zone loop-level regions.
	c := grid.Scaled(grid.Paper1M(), 0.12)
	cfg := DefaultConfig(c)
	teams := newZoneTeams(t, 3, 2)
	s := newCache(t, cfg, CacheOptions{ZoneTeams: teams})
	InitUniform(s)
	for _, tm := range teams {
		tm.ResetSyncEvents()
	}
	s.Step()
	for zi, tm := range teams {
		// Per zone: RHS region (+1 barrier) + sweepJK + sweepL = 4.
		if got := tm.SyncEvents(); got != 4 {
			t.Errorf("zone %d team recorded %d sync events, want 4", zi, got)
		}
	}
}

// TestMLPZoneTeamResizeMidRun: a zone team grown between steps gets its
// extra workers' scratch before the next region opens (step entry used
// to grow only the primary team's set, so worker 2 of a resized zone
// team indexed past the zone's scratch and panicked), and the
// history stays bitwise the serial one across the resize.
func TestMLPZoneTeamResizeMidRun(t *testing.T) {
	c := grid.Scaled(grid.Paper1M(), 0.12)
	cfg := DefaultConfig(c)
	ref := newCache(t, cfg, CacheOptions{})
	teams := newZoneTeams(t, len(c.Zones), 2)
	mlp := newCache(t, cfg, CacheOptions{ZoneTeams: teams})
	InitPulse(ref, 0.02)
	InitPulse(mlp, 0.02)
	for i := 0; i < 6; i++ {
		if i == 2 {
			teams[1].Resize(4)
		}
		if i == 4 {
			teams[1].Resize(1)
			teams[0].Resize(3)
		}
		want, got := ref.Step(), mlp.Step()
		if math.Float64bits(got.Residual) != math.Float64bits(want.Residual) ||
			math.Float64bits(got.MaxDelta) != math.Float64bits(want.MaxDelta) {
			t.Fatalf("step %d: residual %x / max delta %x, serial %x / %x",
				i, got.Residual, got.MaxDelta, want.Residual, want.MaxDelta)
		}
	}
	if d := MaxPointwiseDiff(ref, mlp); d != 0 {
		t.Fatalf("final state differs by %g", d)
	}
}
