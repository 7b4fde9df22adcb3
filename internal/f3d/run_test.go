package f3d

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/grid"
)

func TestRunToSteadyConverges(t *testing.T) {
	cfg := testConfig(11, 10, 9)
	s := newCache(t, cfg, CacheOptions{})
	InitPulse(s, 0.05)
	h, err := RunToSteady(s, 1e-3, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Converged {
		t.Fatalf("did not converge in %d steps (last residual %g)",
			h.Steps(), h.Residuals[len(h.Residuals)-1])
	}
	if h.ReductionOrders() < 3 {
		t.Errorf("ReductionOrders = %g, want >= 3", h.ReductionOrders())
	}
	// Residuals must be recorded for every step taken.
	if h.Steps() < 2 {
		t.Errorf("suspiciously short history: %d", h.Steps())
	}
}

func TestRunToSteadyUniformImmediate(t *testing.T) {
	cfg := testConfig(8, 8, 8)
	s := newCache(t, cfg, CacheOptions{})
	InitUniform(s)
	h, err := RunToSteady(s, 1e-6, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Converged || h.Steps() != 1 {
		t.Errorf("uniform flow should converge at step 1: %+v", h)
	}
	if !math.IsInf(h.ReductionOrders(), 0) && h.ReductionOrders() != 0 {
		t.Errorf("ReductionOrders on trivial history = %g", h.ReductionOrders())
	}
}

func TestRunToSteadyMaxStepsCap(t *testing.T) {
	cfg := testConfig(10, 9, 8)
	s := newCache(t, cfg, CacheOptions{})
	InitPulse(s, 0.05)
	h, err := RunToSteady(s, 1e-12, 5)
	if err != nil {
		t.Fatal(err)
	}
	if h.Converged {
		t.Error("cannot reach 1e-12 in 5 steps")
	}
	if h.Steps() != 5 {
		t.Errorf("history has %d steps, want 5", h.Steps())
	}
}

func TestRunToSteadyPanics(t *testing.T) {
	cfg := testConfig(8, 8, 8)
	s := newCache(t, cfg, CacheOptions{})
	InitUniform(s)
	for name, fn := range map[string]func(){
		"relTol0": func() { RunToSteady(s, 0, 10) },
		"relTol1": func() { RunToSteady(s, 1, 10) },
		"steps":   func() { RunToSteady(s, 0.5, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestHistoryMaxDiff(t *testing.T) {
	a := History{Residuals: []float64{1, 0.5, 0.25}}
	b := History{Residuals: []float64{1, 0.4, 0.25}}
	if got := a.MaxDiff(&b); math.Abs(got-0.1) > 1e-15 {
		t.Errorf("MaxDiff = %g, want 0.1", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	a.MaxDiff(&History{Residuals: []float64{1}})
}

func TestCrossValidate(t *testing.T) {
	cfg := testConfig(10, 9, 8)
	rep, err := CrossValidate(cfg, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("validation failed:\n%s", rep.String())
	}
	if !strings.Contains(rep.String(), "OK (bitwise)") {
		t.Errorf("report formatting: %q", rep.String())
	}
	// Argument validation.
	if _, err := CrossValidate(cfg, 0, 3); err == nil {
		t.Error("steps=0 accepted")
	}
	if _, err := CrossValidate(cfg, 5, 1); err == nil {
		t.Error("workers=1 accepted")
	}
	bad := cfg
	bad.Dt = -1
	if _, err := CrossValidate(bad, 5, 3); err == nil {
		t.Error("bad config accepted")
	}
}

func TestCrossValidateViscousZonal(t *testing.T) {
	// The full ladder also holds with viscous terms and zonal coupling.
	c, ifaces := SplitAlongJ("z", 17, 9, 10, 8)
	cfg := DefaultConfig(c)
	cfg.Interfaces = ifaces
	cfg.Viscous, cfg.Re = true, 300
	rep, err := CrossValidate(cfg, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("viscous zonal validation failed:\n%s", rep.String())
	}
}

// TestProfilerHook: a traced run is the step's profile — one phase
// span per (zone, group) a step, on one team or on one team per zone.
func TestProfilerHook(t *testing.T) {
	cfg := DefaultConfig(grid.Scaled(grid.Paper1M(), 0.12))
	const steps = 3
	profile := func(zoneTeams bool) map[string]phaseTally {
		team, tr := tracedTeam(t, 1, "")
		opts := CacheOptions{Team: team}
		if zoneTeams {
			opts.ZoneTeams = newZoneTeams(t, len(cfg.Case.Zones), 1)
			for _, zt := range opts.ZoneTeams {
				zt.SetTracer(tr, "")
			}
		}
		s := newCache(t, cfg, opts)
		InitPulse(s, 0.02)
		for i := 0; i < steps; i++ {
			s.Step()
		}
		return phaseSpans(tr.Events())
	}
	for _, zoneTeams := range []bool{false, true} {
		spans := profile(zoneTeams)
		// 5 groups × 3 zones.
		if len(spans) != 15 {
			t.Fatalf("ZoneTeams %v: %d phase span names, want 15: %v", zoneTeams, len(spans), spans)
		}
		for name, p := range spans {
			if p.calls != steps || p.total <= 0 {
				t.Errorf("ZoneTeams %v: %s has %d spans over %v, want %d with time charged", zoneTeams, name, p.calls, p.total, steps)
			}
		}
	}
	// The sweeps dominate the RHS, which dominates BC — the profile
	// shape the paper's incremental workflow exploits. Host noise only
	// adds time to a phase, so one run out of up to five in which the
	// sweep out-costs BC shows the shape; a loaded host can hide it from
	// a single run.
	z := cfg.Case.Zones[2].Name // largest zone
	var sweep, bc time.Duration
	for run := 0; run < 5; run++ {
		spans := profile(false)
		if sweep, bc = spans[z+"/sweep-jk"].total, spans[z+"/bc"].total; sweep > bc {
			break
		}
	}
	if sweep <= bc {
		t.Errorf("sweeps should out-cost boundary conditions: sweep-jk %v, bc %v in the last of 5 runs", sweep, bc)
	}
}

func TestIntegrationMidScalePaperCase(t *testing.T) {
	// The full validation ladder on a mid-scale replica of the paper's
	// 1M case (three zones, zonal interfaces, viscous terms).
	if testing.Short() {
		t.Skip("mid-scale integration test skipped in -short mode")
	}
	c := grid.UnifySpacing(grid.Scaled(grid.Paper1M(), 0.30))
	cfg := DefaultConfig(c)
	cfg.Interfaces = []Interface{{Left: 0, Right: 1}, {Left: 1, Right: 2}}
	cfg.Viscous, cfg.Re = true, 800
	rep, err := CrossValidate(cfg, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("mid-scale validation failed:\n%s", rep.String())
	}
	// And the pulse problem converges on it.
	s := newCache(t, cfg, CacheOptions{})
	InitPulse(s, 0.03)
	h, err := RunToSteady(s, 1e-2, 150)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Converged {
		t.Errorf("mid-scale case did not converge in %d steps", h.Steps())
	}
}
