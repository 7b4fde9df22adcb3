package adapt

import (
	"strings"
	"testing"

	"repro/internal/parloop"
)

// testConfig is the battery's standard controller space: 4 schedules ×
// 3 chunks × the worker plateaus of M=96 capped at 4 procs.
func testConfig() Config {
	return Config{
		Procs:  4,
		M:      96,
		Chunks: []int{1, 8, 64},
	}
}

// space enumerates every legal choice of a config.
func space(cfg Config) []Choice {
	full := cfg.withDefaults()
	var out []Choice
	for _, w := range full.workerPlateaus() {
		for _, s := range full.Schedules {
			for _, c := range full.Chunks {
				out = append(out, Choice{Sched: s, Chunk: c, Workers: w})
			}
		}
	}
	return out
}

// TestConvergenceFromAnyStart is the property test of satellite 2:
// from ANY starting {schedule, chunk, workers} on a stationary
// synthetic workload, the controller reaches a fixed point within
// N = settleSteps*(|space|+2) steps, never changes its pick after
// convergence, and never explores a configuration it rejected.
func TestConvergenceFromAnyStart(t *testing.T) {
	cfg := testConfig()
	starts := space(cfg)
	n := ConvergenceHorizon(cfg)
	if want := settleSteps * (len(starts) + 2); n != want {
		t.Fatalf("ConvergenceHorizon = %d, want settleSteps*(|space|+2) = %d", n, want)
	}
	steps := n + 40 // post-convergence tail to observe stability

	for _, start := range starts {
		start := start
		t.Run(start.String(), func(t *testing.T) {
			t.Parallel()
			ctrl := New("prop", start, cfg)
			out := RunSim(Sim{W: Ragged(96, 800, 3, 11)}, ctrl, steps)

			if out.ConvergedAt < 0 || out.ConvergedAt > n {
				t.Fatalf("not converged within N=%d steps (converged at %d)", n, out.ConvergedAt)
			}
			for s := out.ConvergedAt; s < steps; s++ {
				if out.Choices[s] != out.Final {
					t.Fatalf("oscillation: step %d ran %v after convergence at step %d picked %v",
						s, out.Choices[s], out.ConvergedAt, out.Final)
				}
			}
			// Replay the decision log: an explored choice must never be
			// one that was rejected earlier.
			rejected := make(map[Choice]bool)
			explored := make(map[Choice]int)
			for _, d := range ctrl.Status().Decisions {
				if d.Action == ActionReject && d.Judged != nil {
					rejected[*d.Judged] = true
				}
				switch d.Action {
				case ActionExplore, ActionAdopt, ActionReject:
					// d.Choice is the configuration applied next; if it is
					// a fresh trial it must not be previously rejected.
					if d.Choice != out.Final && rejected[d.Choice] {
						t.Fatalf("step %d revisits rejected configuration %v", d.Step, d.Choice)
					}
					explored[d.Choice]++
				}
			}
			_ = explored
		})
	}
}

// TestConvergedChoiceQuality checks the controller earns its keep: on
// the ragged workloads the fixed point must not be the naive static
// deal, and its steady-state score must be within hysteresis of the
// best configuration in the whole space.
func TestConvergedChoiceQuality(t *testing.T) {
	cfg := testConfig()
	for i, w := range []Workload{Ragged(96, 800, 3, 11), Ragged(96, 1200, 5, 29)} {
		sim := Sim{W: w}
		ctrl := New("quality", Choice{Sched: parloop.Static, Chunk: 1, Workers: 4}, cfg)
		out := RunSim(sim, ctrl, ConvergenceHorizon(cfg)+40)
		if out.ConvergedAt < 0 || out.ConvergedAt > ConvergenceHorizon(cfg) {
			t.Fatalf("workload %d: converged at %d, horizon %d", i, out.ConvergedAt, ConvergenceHorizon(cfg))
		}

		best := 0.0
		var bestCh Choice
		for _, ch := range space(cfg) {
			res, _ := sim.Step(0, ch)
			if best == 0 || res.WallNs < best {
				best, bestCh = res.WallNs, ch
			}
		}
		// Adoption needs a >hysteresis improvement, so the fixed point can
		// trail the true optimum by at most ~hysteresis (compounded once).
		limit := best * (1 + 2*hysteresisPct/100)
		if out.FinalScore > limit {
			t.Fatalf("workload %d: fixed point %v scores %.0f ns; best %v scores %.0f ns (limit %.0f)",
				i, out.Final, out.FinalScore, bestCh, best, limit)
		}
		if out.Final.Sched == parloop.Static {
			t.Fatalf("workload %d: controller stayed on the static deal (%v) for a ragged workload", i, out.Final)
		}
	}
}

// TestDriftReset proves the phase-change path: converge on one cost
// surface, shift it (KindCostShift's shape), and require re-convergence
// to a fixed point that suits the new surface.
func TestDriftReset(t *testing.T) {
	cfg := testConfig()
	// Phase 1 ragged (dynamic wins); phase 2 uniform but 60x heavier
	// per iteration at chunk granularity — the fork/deal overheads
	// vanish relative to work, so the surface changes shape entirely.
	w := PhaseShift(Ragged(96, 800, 3, 7), Uniform(96, 48000), 160)
	ctrl := New("drift", Choice{Sched: parloop.Static, Chunk: 1, Workers: 4}, cfg)
	out := RunSim(Sim{W: w}, ctrl, 400)
	if out.ConvergedAt < 0 || out.ConvergedAt > 160 {
		t.Fatalf("no convergence before the shift (converged at %d)", out.ConvergedAt)
	}
	if !ctrl.Converged() {
		t.Fatal("controller did not re-converge after the cost shift")
	}
	var sawDrift bool
	for _, d := range ctrl.Status().Decisions {
		if d.Action == ActionDrift {
			sawDrift = true
		}
	}
	if !sawDrift {
		t.Fatalf("no drift-reset decision recorded after the cost shift (final %v)", out.Final)
	}
}

// TestLegalize pins the envelope clamp.
func TestLegalize(t *testing.T) {
	ctrl := New("env", Choice{Sched: parloop.Schedule(99), Chunk: -5, Workers: 1000}, testConfig())
	ch := ctrl.Choice()
	if ch.Chunk < 1 {
		t.Fatalf("chunk %d < 1", ch.Chunk)
	}
	if ch.Workers < 1 || ch.Workers > 4 {
		t.Fatalf("workers %d outside [1, 4]", ch.Workers)
	}
	legalSched := false
	for _, s := range parloop.Schedules() {
		if ch.Sched == s {
			legalSched = true
		}
	}
	if !legalSched {
		t.Fatalf("schedule %v not legal", ch.Sched)
	}
}

// TestObserveWindowBoundaries: the applied choice may change only when
// a settleSteps window closes, never mid-window (the hysteresis bound
// the fuzz target also enforces on arbitrary inputs).
func TestObserveWindowBoundaries(t *testing.T) {
	cfg := testConfig()
	ctrl := New("win", Choice{Sched: parloop.Dynamic, Chunk: 8, Workers: 4}, cfg)
	prev := ctrl.Choice()
	for step := 1; step <= 200; step++ {
		d := ctrl.Observe(Verdict{WallNs: int64(1000 + step%7), BudgetPass: true})
		if d.Choice != prev && step%settleSteps != 0 {
			t.Fatalf("choice changed mid-window at step %d (%v -> %v)", step, prev, d.Choice)
		}
		prev = d.Choice
	}
}

// TestStatusAndHistory covers the snapshot path and the decision-log
// dedupe/caps.
func TestStatusAndHistory(t *testing.T) {
	cfg := testConfig()
	ctrl := New("hist", Choice{Sched: parloop.Static, Chunk: 1, Workers: 4}, cfg)
	RunSim(Sim{W: Ragged(96, 800, 3, 3)}, ctrl, 400)
	st := ctrl.Status()
	if st.Label != "hist" || st.Step != 400 {
		t.Fatalf("status identity: %+v", st)
	}
	if !st.Converged {
		t.Fatal("expected convergence after 400 steps")
	}
	holds := 0
	for i, d := range st.Decisions {
		if d.Action == ActionHold && i > 0 &&
			(st.Decisions[i-1].Action == ActionHold || st.Decisions[i-1].Action == ActionConverged) {
			holds++
		}
	}
	if holds > 0 {
		t.Fatalf("steady-state holds not deduped: %d consecutive", holds)
	}
	if s := st.Choice.String(); !strings.Contains(s, "/c") || !strings.Contains(s, "/w") {
		t.Fatalf("Choice.String format: %q", s)
	}
}

// TestHistoryCap: the decision log keeps the maxHistory most recent
// state-changing decisions.
func TestHistoryCap(t *testing.T) {
	ctrl := New("cap", Choice{Sched: parloop.Static, Chunk: 1, Workers: 4}, testConfig())
	for step := 1; step <= maxHistory+40; step++ {
		ctrl.record(Decision{Step: step, Action: ActionExplore})
	}
	st := ctrl.Status()
	if len(st.Decisions) != maxHistory {
		t.Fatalf("history %d, want cap %d", len(st.Decisions), maxHistory)
	}
	if first, last := st.Decisions[0].Step, st.Decisions[maxHistory-1].Step; first != 41 || last != maxHistory+40 {
		t.Fatalf("history spans steps %d..%d, want the newest 41..%d", first, last, maxHistory+40)
	}
}

// TestScriptChoicesDeterministic: same seed, same script; different
// seed, different start; every scripted choice legal.
func TestScriptChoicesDeterministic(t *testing.T) {
	cfg := Config{Procs: 4, M: 64, Chunks: []int{1, 8, 64}}
	a := ScriptChoices(5, cfg, 24)
	b := ScriptChoices(5, cfg, 24)
	if len(a) != 24 || len(b) != 24 {
		t.Fatalf("script lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 5 not deterministic at step %d: %v vs %v", i, a[i], b[i])
		}
		if a[i].Chunk < 1 || a[i].Workers < 1 || a[i].Workers > 4 {
			t.Fatalf("illegal scripted choice %v", a[i])
		}
	}
	c := ScriptChoices(6, cfg, 24)
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("seeds 5 and 6 produced identical scripts")
	}
}
