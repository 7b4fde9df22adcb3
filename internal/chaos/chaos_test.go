package chaos

import (
	"testing"

	"repro/internal/sched"
)

// TestGeneratorDeterministic: the same seed and config deal the exact
// same job stream — names, shapes, and fault plans. This is what makes
// a soak failure reproducible from its seed alone.
func TestGeneratorDeterministic(t *testing.T) {
	cfg := GenConfig{Profile: Profile{PanicWorker: 0.1, JobError: 0.1, Hang: 0.1, Stall: 0.1}}
	a := NewGenerator(42, cfg)
	b := NewGenerator(42, cfg)
	for i := 0; i < 500; i++ {
		sa, sb := a.Next(), b.Next()
		if sa != sb {
			t.Fatalf("spec %d diverged: %+v vs %+v", i, sa, sb)
		}
		if sa.M < 1 || sa.Steps < 1 {
			t.Fatalf("spec %d degenerate: %+v", i, sa)
		}
	}
	// A different seed must actually change the stream.
	c := NewGenerator(43, cfg)
	same := 0
	a = NewGenerator(42, cfg)
	for i := 0; i < 500; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same == 500 {
		t.Fatal("seed 43 dealt the same stream as seed 42")
	}
}

// TestInjectorHonorsProfile: fault frequencies land near their
// configured probabilities, and a zero profile injects nothing.
func TestInjectorHonorsProfile(t *testing.T) {
	p := Profile{PanicWorker: 0.1, JobError: 0.1, Hang: 0.1, Stall: 0.1, Race: 0.1}
	in := NewInjector(7, p)
	const n = 5000
	counts := map[Kind]int{}
	for i := 0; i < n; i++ {
		f := in.Next(4)
		counts[f.Kind]++
		if f.Kind != KindNone && (f.Step < 0 || f.Step >= 4) {
			t.Fatalf("fault step %d out of range", f.Step)
		}
	}
	faulted := n - counts[KindNone]
	frac := float64(faulted) / n
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("fault fraction %.3f, want near %.1f", frac, p.FaultFraction())
	}
	for _, k := range []Kind{KindPanicWorker, KindJobError, KindHang, KindStall, KindRace} {
		if counts[k] == 0 {
			t.Fatalf("kind %v never dealt in %d draws", k, n)
		}
	}

	quiet := NewInjector(7, Profile{})
	for i := 0; i < 1000; i++ {
		if f := quiet.Next(4); f.Kind != KindNone {
			t.Fatalf("zero profile injected %v", f.Kind)
		}
	}
}

// TestExpectedStateMapping pins the fault-kind -> terminal-state
// contract the soak asserts against.
func TestExpectedStateMapping(t *testing.T) {
	cases := map[Kind]sched.State{
		KindNone:        sched.StateDone,
		KindStall:       sched.StateDone,
		KindRace:        sched.StateDone,
		KindJobError:    sched.StateFailed,
		KindPanicWorker: sched.StateFailed,
		KindHang:        sched.StateTimedOut,
	}
	for k, want := range cases {
		s := Spec{Fault: Fault{Kind: k}}
		if got := s.ExpectedState(); got != want {
			t.Errorf("ExpectedState(%v) = %v, want %v", k, got, want)
		}
	}
}

// TestSingleFaultJobs runs one job of each kind through a real
// scheduler on the virtual clock and checks the terminal state — the
// unit-sized version of the soak.
func TestSingleFaultJobs(t *testing.T) {
	kinds := []Kind{KindNone, KindJobError, KindPanicWorker, KindStall, KindRace, KindHang}
	for _, k := range kinds {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			res, err := Soak(SoakConfig{
				Seed: 1,
				Jobs: 1,
				Gen:  GenConfig{Profile: exclusiveProfile(k), MaxM: 6, MaxSteps: 3},
			})
			if err != nil {
				t.Fatalf("soak: %v (result %+v)", err, res)
			}
			want := Spec{Fault: Fault{Kind: k}}.ExpectedState()
			if res.ByState[want] != 1 {
				t.Fatalf("states %v, want one %v", res.ByState, want)
			}
		})
	}
}

// exclusiveProfile deals only the given kind (or nothing for
// KindNone).
func exclusiveProfile(k Kind) Profile {
	switch k {
	case KindPanicWorker:
		return Profile{PanicWorker: 1}
	case KindJobError:
		return Profile{JobError: 1}
	case KindHang:
		return Profile{Hang: 1}
	case KindStall:
		return Profile{Stall: 1}
	case KindRace:
		return Profile{Race: 1}
	default:
		return Profile{}
	}
}

// TestProfileValidation: bad probabilities refuse to construct.
func TestProfileValidation(t *testing.T) {
	for _, p := range []Profile{
		{PanicWorker: -0.1},
		{PanicWorker: 0.5, JobError: 0.6},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewInjector(%+v) did not panic", p)
				}
			}()
			NewInjector(1, p)
		}()
	}
}

// TestSpecJobDefaults: nil clock and zero stall get safe defaults.
func TestSpecJobDefaults(t *testing.T) {
	j := Spec{Name: "x", M: 2, Steps: 1}.Job(nil, 0)
	if j.Name() != "x" || j.Parallelism() != 2 {
		t.Fatalf("job identity mangled: %s/%d", j.Name(), j.Parallelism())
	}
}
