package check

import (
	"slices"
	"testing"

	"repro/internal/parloop"
)

// TestAdaptiveCellsAllKernels runs every registry kernel under the
// scripted adaptive controller across the full team-size axis and
// requires bitwise/ULP conformance vs. serial — mid-step schedule,
// chunk and team-size changes must never alter residual history.
func TestAdaptiveCellsAllKernels(t *testing.T) {
	m := DefaultMatrix()
	m.Resize = false // isolate the adaptive column
	kernels := Registry()
	rep := Run(kernels, m)
	if !rep.OK() {
		t.Fatalf("adaptive conformance failures:\n%s", rep)
	}
	// Every kernel must have gained exactly one adaptive cell per team
	// size on top of the static axes.
	mNo := m
	mNo.Adaptive = false
	repNo := Run(kernels, mNo)
	wantExtra := len(kernels) * len(m.TeamSizes)
	if got := rep.Cases - repNo.Cases; got != wantExtra {
		t.Fatalf("adaptive column added %d cases, want %d", got, wantExtra)
	}
}

// TestAdaptiveCaseDeterminism: the scripted cell must replay
// identically — same seed, same script, same decisions — so a failure
// is reproducible from its Case line alone.
func TestAdaptiveCaseDeterminism(t *testing.T) {
	var stencil Kernel
	for _, k := range Registry() {
		if k.Steps > 0 && len(k.Schedules) > 1 {
			stencil = k
			break
		}
	}
	if stencil.Name == "" {
		t.Fatal("no multi-step multi-schedule kernel in registry")
	}
	c := adaptiveCase(stencil, 4)
	if !c.Adaptive {
		t.Fatal("adaptiveCase did not mark the cell adaptive")
	}
	s1 := adaptScript(stencil, 4, c.Seed)
	s2 := adaptScript(stencil, 4, c.Seed)
	if len(s1) != stencil.Steps || len(s1) != len(s2) {
		t.Fatalf("script lengths %d, %d; want %d", len(s1), len(s2), stencil.Steps)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("script not deterministic at step %d: %v vs %v", i, s1[i], s2[i])
		}
	}
	// Scripted picks must honor the kernel's legal schedules.
	legal := make(map[parloop.Schedule]bool)
	for _, s := range stencil.Schedules {
		legal[s] = true
	}
	for i, ch := range s1 {
		if !legal[ch.Sched] {
			t.Fatalf("step %d scripted illegal schedule %v", i, ch.Sched)
		}
		if ch.Chunk < 1 || ch.Workers < 1 || ch.Workers > 4 {
			t.Fatalf("step %d scripted out-of-envelope choice %v", i, ch)
		}
	}
}

// TestAdaptHookMidFlight is the direct seam test: a hook that flips
// the schedule and chunk every single step (the most aggressive
// controller possible) must leave a multi-step kernel's residual
// history bitwise identical to its serial reference within the
// kernel's ULP budget.
func TestAdaptHookMidFlight(t *testing.T) {
	for _, k := range Registry() {
		if k.Steps == 0 {
			continue
		}
		k := k
		t.Run(k.Name, func(t *testing.T) {
			scheds := k.Schedules
			if len(scheds) == 0 {
				scheds = []parloop.Schedule{parloop.Static}
			}
			team := parloop.NewTeam(4)
			defer team.Close()
			spec := Spec{N: k.N, Sched: scheds[0], Chunk: 1}
			spec.AdaptHook = func(step int, sp *Spec) {
				sp.Sched = scheds[step%len(scheds)]
				sp.Chunk = 1 + (step%3)*5
			}
			out := k.Parallel(team, spec)
			ref := k.Serial(k.N)
			c := Case{Workers: 4, Sched: scheds[0], Chunk: 1, Adaptive: true}
			if f, ok := compare(k, c, k.N, out, ref); !ok {
				t.Fatalf("mid-flight re-pick changed residuals: %v", f)
			}
		})
	}
}

// TestAdaptiveCaseString pins the report line format.
func TestAdaptiveCaseString(t *testing.T) {
	c := Case{Workers: 4, Sched: parloop.Dynamic, Chunk: 3, Adaptive: true, Seed: 99}
	s := c.String()
	want := "workers=4 sched=dynamic chunk=3 adaptive(seed=99)"
	if s != want {
		t.Fatalf("Case.String() = %q, want %q", s, want)
	}
}

// TestScriptWalk: on every multi-step, multi-schedule kernel and every
// team size, the script replays identically, stays inside the legal
// envelope, re-picks schedule or chunk at no fewer than half of its step
// boundaries and (on teams of two or more) changes the team size at
// least once.
func TestScriptWalk(t *testing.T) {
	chunks := DefaultMatrix().Chunks
	tested := 0
	for _, k := range Registry() {
		if k.Steps < 2 || len(k.Schedules) < 2 {
			continue
		}
		tested++
		legal := make(map[parloop.Schedule]bool)
		for _, s := range k.Schedules {
			legal[s] = true
		}
		for _, w := range DefaultMatrix().TeamSizes {
			c := adaptiveCase(k, w)
			script := adaptScript(k, w, c.Seed)
			if again := adaptScript(k, w, c.Seed); !slices.Equal(script, again) {
				t.Fatalf("%s w=%d: script not deterministic: %v vs %v", k.Name, w, script, again)
			}
			if len(script) != k.Steps || script[0].Workers != w {
				t.Fatalf("%s w=%d: script %v: want %d steps starting on the whole team", k.Name, w, script, k.Steps)
			}
			repicks, resized := 0, false
			for i, ch := range script {
				if !legal[ch.Sched] || !slices.Contains(chunks, ch.Chunk) || ch.Workers < 1 || ch.Workers > w {
					t.Fatalf("%s w=%d: step %d scripted illegal choice %v", k.Name, w, i, ch)
				}
				if i == 0 {
					continue
				}
				prev := script[i-1]
				if ch.Sched != prev.Sched || ch.Chunk != prev.Chunk {
					repicks++
				}
				resized = resized || ch.Workers != prev.Workers
			}
			if boundaries := len(script) - 1; 2*repicks < boundaries {
				t.Errorf("%s w=%d: re-picked schedule or chunk at %d of %d boundaries", k.Name, w, repicks, boundaries)
			}
			if w > 1 && !resized {
				t.Errorf("%s w=%d: script never changed the team size: %v", k.Name, w, script)
			}
		}
	}
	if tested == 0 {
		t.Fatal("no multi-step multi-schedule kernel in registry")
	}
}
