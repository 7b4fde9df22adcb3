package f3d

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/euler"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/parloop"
)

// loweredSyncs is the lowering's own count of a zone step's
// synchronization events on a team of two or more: a group with a split
// phase is one region plus one barrier between consecutive phases, plus
// one before a split phase's tail unless that phase ends the group (the
// tail then runs after the join).
func loweredSyncs(lw lowering, exchange bool) int {
	n := 0
	for _, g := range lw.groups {
		split := lw.split[g.first:g.end]
		if !slices.Contains(split, true) {
			continue
		}
		n += len(split)
		if exchange && g.first == phBC && split[0] && len(split) > 1 {
			n++
		}
	}
	return n
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// closedFormSyncs is the count the hand-written drivers this one
// replaced produced, shape by shape.
func closedFormSyncs(sh StepShape) int {
	if sh.Merged {
		return 6
	}
	return b2i(sh.BC) + b2i(sh.SweepJK) + b2i(sh.SweepL) + 2*b2i(sh.RHS)
}

// The executor synchronizes exactly as often as the lowering says, and
// the lowering says what the replaced drivers did — for every shape.
func TestStepSyncEventsMatchLowering(t *testing.T) {
	cfg := testConfig(8, 7, 6)
	team := parloop.NewTeam(2)
	defer team.Close()
	for bits := range numShapes {
		sh := shapeFromBits(bits)
		want := closedFormSyncs(sh)
		if got := loweredSyncs(lowerShape(sh), false); got != want {
			t.Fatalf("%+v: lowering counts %d sync events, closed form %d", sh, got, want)
		}
		s := newCache(t, cfg, CacheOptions{Team: team, Shape: &sh})
		InitPulse(s, 0.01)
		team.ResetSyncEvents()
		s.Step()
		if got := team.SyncEvents(); got != uint64(want) {
			t.Fatalf("%+v: step cost %d sync events, want %d", sh, got, want)
		}
	}
}

// With an exchange tail the count moves only under Merged with split
// boundary conditions: one barrier orders every worker's boundary writes
// before worker 0's exchange.
func TestStepSyncEventsWithExchange(t *testing.T) {
	cfg := testConfig(8, 7, 6)
	cfg.Interfaces = []Interface{{Left: 0, Right: Remote}}
	team := parloop.NewTeam(2)
	defer team.Close()
	for bits := range numShapes {
		sh := shapeFromBits(bits)
		want := closedFormSyncs(sh) + b2i(sh.Merged && sh.BC)
		if got := loweredSyncs(lowerShape(sh), true); got != want {
			t.Fatalf("%+v: lowering counts %d sync events with an exchange, want %d", sh, got, want)
		}
		s := newCache(t, cfg, CacheOptions{Team: team, Shape: &sh})
		InitPulse(s, 0.01)
		receiveOwnPlane(t, s)
		team.ResetSyncEvents()
		s.Step()
		if got := team.SyncEvents(); got != uint64(want) {
			t.Fatalf("%+v: step with a remote link cost %d sync events, want %d", sh, got, want)
		}
	}
}

// receiver is a solver with Remote links: CacheSolver and BlockSolver.
type receiver interface {
	Solver
	Receive(*BoundaryPlane) error
}

// receiveOwnPlane feeds the Remote J-max face of zone 0 its own j=1
// interior plane.
func receiveOwnPlane(t *testing.T, s receiver) {
	t.Helper()
	p, err := CapturePlane(s, 0, FaceJMin)
	if err != nil {
		t.Fatal(err)
	}
	p = p.RetargetTo(0)
	if err := s.Receive(&p); err != nil {
		t.Fatal(err)
	}
}

// Every shape on a three-zone case: bitwise the serial history with local
// interfaces, and — as a shard holding zones 0–1 whose J-max face is fed
// by Receive from the serial run — bitwise its zones 0–1. The exchange
// runs on worker 0 inside the open region under Merged, behind the
// boundary writes and ahead of the right-hand side.
func TestShapedStepsWithExchangeMatchSerialBitwise(t *testing.T) {
	c, ifaces := StackAlongJ("stack", 20, 8, 7, []int{6, 12})
	cfg := DefaultConfig(c)
	cfg.Interfaces = ifaces
	shard := cfg
	shard.Case.Zones = c.Zones[:2]
	shard.Interfaces = []Interface{{Left: 0, Right: 1}, {Left: 1, Right: Remote}}
	const steps = 3
	ref := newCache(t, cfg, CacheOptions{})
	InitPulse(ref, 0.02)
	refStats := make([]StepStats, steps)
	refParts := make([][]ZoneResidual, steps)
	planes := make([]BoundaryPlane, steps)
	for i := range refStats {
		p, err := CapturePlane(ref, 2, FaceJMin)
		if err != nil {
			t.Fatal(err)
		}
		planes[i] = p.RetargetTo(1)
		refStats[i] = ref.Step()
		refParts[i] = slices.Clone(ref.ZoneResiduals()[:2])
	}

	team := parloop.NewTeam(3)
	defer team.Close()
	for bits := range numShapes {
		sh := shapeFromBits(bits)
		s := newCache(t, cfg, CacheOptions{Team: team, Shape: &sh})
		fed := newCache(t, shard, CacheOptions{Team: team, Shape: &sh})
		InitPulse(s, 0.02)
		InitPulse(fed, 0.02)
		for i := range refStats {
			if st := s.Step(); st != refStats[i] {
				t.Fatalf("%+v step %d: history drifted: %+v vs %+v", sh, i, st, refStats[i])
			}
			if err := fed.Receive(&planes[i]); err != nil {
				t.Fatal(err)
			}
			fed.Step()
			if !slices.Equal(fed.ZoneResiduals(), refParts[i]) {
				t.Fatalf("%+v step %d: fed shard's residual parts %v, serial %v", sh, i, fed.ZoneResiduals(), refParts[i])
			}
		}
		if d := MaxPointwiseDiff(s, ref); d != 0 {
			t.Fatalf("%+v: final state differs by %g", sh, d)
		}
		for zi, zs := range fed.Zones() {
			refQ := ref.Zones()[zi].Q.Vec
			vecsBitEqual(t, fmt.Sprintf("%+v: fed shard's zone %d final state", sh, zi), zs.Q.Vec, refQ, len(refQ))
		}
	}
}

// TestResidualFacesStayZero: no pass of any point-major solver leaves
// anything but +0 on a face point of R, under every shape, on a zonal
// case and a stretched viscous one. It is what makes the sweeps' +0
// stores at a line's ends (TestKernelsWriteLineEndsOnlyAsZero) harmless
// when the line they are handed is R itself.
func TestResidualFacesStayZero(t *testing.T) {
	zonal, ifaces := StackAlongJ("stack", 20, 8, 7, []int{6, 12})
	zcfg := DefaultConfig(zonal)
	zcfg.Interfaces = ifaces
	scfg := stretchedConfig()
	scfg.Viscous, scfg.Re = true, 800
	team := parloop.NewTeam(3)
	defer team.Close()
	check := func(name string, s Solver) {
		t.Helper()
		InitPulse(s, 0.02)
		var r [euler.NC]float64
		for step := 0; step < 2; step++ {
			s.Step()
			for _, zs := range s.Zones() {
				z := zs.Zone
				for l := 0; l < z.LMax; l++ {
					for k := 0; k < z.KMax; k++ {
						for j := 0; j < z.JMax; j++ {
							if faceOf(z, j, k, l) < 0 {
								continue
							}
							zs.R.Point(j, k, l, r[:])
							for c, v := range r {
								if math.Float64bits(v) != 0 {
									t.Fatalf("%s step %d: R(%d,%d,%d)[%d] on %s = %v, want +0", name, step, j, k, l, c, z.Name, v)
								}
							}
						}
					}
				}
			}
		}
	}
	for _, cfg := range []Config{zcfg, scfg} {
		check(cfg.Case.Name+" reference", scalarSolver(t, cfg))
		for bits := range numShapes {
			sh := shapeFromBits(bits)
			opts := CacheOptions{Team: team, Shape: &sh}
			check(fmt.Sprintf("%s cache %+v", cfg.Case.Name, sh), newCache(t, cfg, opts))
			check(fmt.Sprintf("%s block %+v", cfg.Case.Name, sh), newBlock(t, cfg, opts))
		}
	}
}

// The performance model marks a phase parallel exactly when the driver
// splits it: it reads the same lowering.
func TestStepProfileFollowsLowering(t *testing.T) {
	c := grid.Single(12, 10, 9)
	for bits := range numShapes {
		sh := shapeFromBits(bits)
		lw := lowerShape(sh)
		parallel := map[string]bool{}
		for _, lc := range StepProfileFor(c, sh).Loops {
			parallel[lc.Name] = true
		}
		for ph, name := range map[int]string{phBC: "bc", phRHSJK: "rhs-jk", phRHSL: "rhs-l", phSweepJK: "sweep-jk", phSweepL: "sweep-l"} {
			if got := parallel[c.Zones[0].Name+"/"+name]; got != lw.split[ph] {
				t.Errorf("%+v: %s modelled parallel=%v, driver splits it=%v", sh, name, got, lw.split[ph])
			}
		}
		if lw.split[phResidual] || parallel[c.Zones[0].Name+"/residual"] {
			t.Errorf("%+v: the residual is never split", sh)
		}
	}
}

// numShapes is the number of StepShape values: one bit per field.
const numShapes = 1 << 5

// shapeFromBits enumerates StepShape: bit i of bits sets the i-th
// field, so 0..numShapes-1 covers every value of the type.
func shapeFromBits(bits int) StepShape {
	on := func(i int) bool { return bits&(1<<i) != 0 }
	return StepShape{RHS: on(0), SweepJK: on(1), SweepL: on(2), BC: on(3), Merged: on(4)}
}

// Every one of the 2⁵ step shapes — each phase parallel or serial,
// merged or not — must reproduce the serial run's residual history,
// MaxDelta and flow state bitwise, on both solvers the step driver
// serves. internal/check's f3d cells prove this for the served and
// merged shapes across their full matrix; this is the solver-local
// exhaustive version.
func TestShapedStepsMatchSerialBitwise(t *testing.T) {
	cfg := testConfig(10, 9, 8)
	type stepper interface {
		Solver
		Close()
	}
	for _, v := range []struct {
		name string
		new  func(CacheOptions) (stepper, error)
	}{
		{"cache", func(o CacheOptions) (stepper, error) { return NewCacheSolver(cfg, o) }},
		{"block", func(o CacheOptions) (stepper, error) { return NewBlockSolver(cfg, o) }},
	} {
		ref := mustSolver(v.new(CacheOptions{}))
		defer ref.Close()
		InitPulse(ref, 0.01)
		refStats := make([]StepStats, 4)
		for i := range refStats {
			refStats[i] = ref.Step()
		}
		for _, workers := range []int{2, 4} {
			team := parloop.NewTeam(workers)
			for bits := range numShapes {
				sh := shapeFromBits(bits)
				s := mustSolver(v.new(CacheOptions{Team: team, Shape: &sh}))
				InitPulse(s, 0.01)
				for i := range refStats {
					if st := s.Step(); st != refStats[i] {
						t.Fatalf("%s %+v workers=%d step %d: history drifted: %+v vs %+v",
							v.name, sh, workers, i, st, refStats[i])
					}
				}
				if d := MaxPointwiseDiff(s, ref); d != 0 {
					t.Fatalf("%s %+v workers=%d: final state differs by %g", v.name, sh, workers, d)
				}
				s.Close()
			}
			team.Close()
		}
	}
}

// Shape reports the shape the solver was built with, the same before
// and after its steps; a nil CacheOptions.Shape is DefaultShape.
func TestSolverShapeReportsCurrentStep(t *testing.T) {
	cfg := testConfig(6, 5, 4)
	team := parloop.NewTeam(2)
	defer team.Close()
	for _, sh := range []*StepShape{nil, {RHS: true}, mergedCfg(true)} {
		want := DefaultShape()
		if sh != nil {
			want = *sh
		}
		s := newCache(t, cfg, CacheOptions{Team: team, Shape: sh})
		InitPulse(s, 0.01)
		for i := range 2 {
			if got := s.Shape(); got != want {
				t.Fatalf("shape %v before step %d: Shape() = %+v, want %+v", sh, i, got, want)
			}
			s.Step()
		}
	}
}

// phaseTally is one phase span name's share of a trace.
type phaseTally struct {
	calls int
	total time.Duration
}

// phaseSpans tallies a trace's phase spans by name.
func phaseSpans(events []obs.Event) map[string]phaseTally {
	out := map[string]phaseTally{}
	for _, e := range events {
		if e.Kind == obs.KindPhase {
			p := out[e.Name]
			p.calls++
			p.total += e.Dur
			out[e.Name] = p
		}
	}
	return out
}

// tracedTeam is a team of n workers with an enabled tracer attached
// under label.
func tracedTeam(t *testing.T, n int, label string) (*parloop.Team, *obs.Tracer) {
	t.Helper()
	tr := obs.NewTracer(1<<14, nil)
	tr.Enable()
	team := parloop.NewTeam(n)
	t.Cleanup(team.Close)
	team.SetTracer(tr, label)
	return team, tr
}

// Every group of a traced step is one phase span "<label>/<zone>/<group>"
// a step, serial bc and residual included, and the team's regions keep
// the team's own label.
func TestPhaseTraceLabelsPhases(t *testing.T) {
	cfg := testConfig(8, 7, 6)
	team, tr := tracedTeam(t, 3, "jobX")
	s := newCache(t, cfg, CacheOptions{Team: team})
	InitPulse(s, 0.01)
	for range 2 {
		s.Step()
	}
	spans := phaseSpans(tr.Events())
	zone := cfg.Case.Zones[0].Name
	for _, g := range []string{"bc", "rhs", "residual", "sweep-jk", "sweep-l"} {
		if p := spans["jobX/"+zone+"/"+g]; p.calls != 2 {
			t.Errorf("phase %s: %d spans, want one a step (saw %v)", g, p.calls, spans)
		}
	}
	if len(spans) != 5 {
		t.Errorf("phase spans %v, want the 5 groups of the default shape", spans)
	}
	for _, e := range tr.Events() {
		if e.Kind != obs.KindPhase && e.Name != "jobX" {
			t.Fatalf("%v event named %q, want the team label jobX", e.Kind, e.Name)
		}
	}
}

// A merged step is one phase span, "<zone>/step".
func TestPhaseTraceMergedStep(t *testing.T) {
	cfg := testConfig(8, 7, 6)
	team, tr := tracedTeam(t, 3, "jobZ")
	s := newCache(t, cfg, CacheOptions{Team: team, Shape: mergedCfg(true)})
	InitPulse(s, 0.01)
	s.Step()
	spans := phaseSpans(tr.Events())
	name := "jobZ/" + cfg.Case.Zones[0].Name + "/step"
	if len(spans) != 1 || spans[name].calls != 1 {
		t.Errorf("phase spans %v, want one %s", spans, name)
	}
}
