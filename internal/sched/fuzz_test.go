package sched

import (
	"testing"

	"repro/internal/model"
)

// FuzzPlateauGrant fuzzes the single-grant decision: for any job
// parallelism m and free-processor count avail, the grant must be 0
// exactly when nothing is free, otherwise a plateau of m within
// [1, min(m, avail)] that loses no speedup versus taking everything
// available.
func FuzzPlateauGrant(f *testing.F) {
	f.Add(15, 7)
	f.Add(15, 15)
	f.Add(1, 64)
	f.Add(97, 3)
	f.Add(1024, 1024)
	f.Fuzz(func(t *testing.T, m, avail int) {
		if m < 1 || m > 1<<16 || avail < -8 || avail > 1<<16 {
			t.Skip()
		}
		g := PlateauGrant(m, avail)
		if avail <= 0 {
			if g != 0 {
				t.Fatalf("PlateauGrant(%d, %d) = %d, want 0 with nothing free", m, avail, g)
			}
			return
		}
		bound := m
		if avail < bound {
			bound = avail
		}
		if g < 1 || g > bound {
			t.Fatalf("PlateauGrant(%d, %d) = %d outside [1, %d]", m, avail, g, bound)
		}
		ceil := func(p int) int { return (m + p - 1) / p }
		if g > 1 && ceil(g) >= ceil(g-1) {
			t.Fatalf("PlateauGrant(%d, %d) = %d is off-plateau", m, avail, g)
		}
		// No speedup sacrificed: the grant's critical path equals the
		// critical path of grabbing every available processor.
		if ceil(g) != ceil(bound) {
			t.Fatalf("PlateauGrant(%d, %d) = %d loses speedup: ceil %d vs %d at p=%d",
				m, avail, g, ceil(g), ceil(bound), bound)
		}
	})
}

// FuzzAllocator drives a live scheduler with a byte-string-derived
// sequence of submit/finish/cancel/step operations and asserts the
// global allocation invariants after every step: grants always sit on
// a plateau of the job's parallelism, concurrent grants never sum past
// the budget (InUse + Free == Procs, MaxInUse <= Procs), and when the
// dust settles nothing is leaked.
func FuzzAllocator(f *testing.F) {
	f.Add(uint8(6), []byte{0x15, 0x3f, 0x04, 0x81, 0x22, 0xf0, 0x07})
	f.Add(uint8(3), []byte{0x01, 0x01, 0x01, 0x80, 0x80, 0x80})
	f.Add(uint8(16), []byte{0xff, 0x00, 0x42, 0x9a, 0x33, 0x77, 0xc8, 0x11})
	// On 2 processors: a (M=2) is shrunk to admit b (M=1); b's end
	// leaves a processor idle that a has not taken; c (M=1) must start
	// on it.
	f.Add(uint8(1), []byte{0x01, 0x00, 0xc0, 0x81, 0x00})
	f.Fuzz(func(t *testing.T, procsByte uint8, ops []byte) {
		procs := 1 + int(procsByte)%16
		if len(ops) > 48 {
			ops = ops[:48]
		}
		s := New(Config{Procs: procs, QueueDepth: 8})
		defer s.Close()

		type slot struct {
			j *gateJob
			h *Handle
		}
		var live []slot
		check := func() {
			t.Helper()
			m := s.Metrics()
			if m.InUse+m.Free != m.Procs {
				t.Fatalf("budget leak: InUse %d + Free %d != Procs %d", m.InUse, m.Free, m.Procs)
			}
			if m.MaxInUse > m.Procs {
				t.Fatalf("budget exceeded: MaxInUse %d > Procs %d", m.MaxInUse, m.Procs)
			}
			// A grow is applied where it is decided, so no running job
			// ever has one pending.
			s.mu.Lock()
			for _, rec := range s.running {
				if rec.target > rec.granted {
					s.mu.Unlock()
					t.Fatalf("job %d holds an unapplied grow %d -> %d", rec.id, rec.granted, rec.target)
				}
			}
			s.mu.Unlock()
			for _, sl := range live {
				st := sl.h.Status()
				if st.State != StateRunning {
					continue
				}
				on := false
				for _, p := range model.PlateauProcs(st.Requested, st.Requested) {
					if st.Granted == p {
						on = true
						break
					}
				}
				if !on {
					t.Fatalf("job %d granted %d, off every plateau of M=%d", st.ID, st.Granted, st.Requested)
				}
			}
		}
		finishRunning := func(idx int) {
			var running []int
			for i, sl := range live {
				if sl.h.Status().State == StateRunning {
					running = append(running, i)
				}
			}
			if len(running) == 0 {
				return
			}
			i := running[idx%len(running)]
			sl := live[i]
			sl.j.finish <- nil
			if err := waitDone(t, sl.h); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		}
		for _, op := range ops {
			switch op >> 6 {
			case 0, 1: // submit a job with m from the low bits
				m := 1 + int(op&0x3f)%20
				j := newGate("fuzz", m)
				h, err := s.Submit(j)
				if err != nil {
					break // queue full: legitimate backpressure
				}
				live = append(live, slot{j, h})
			case 2: // finish a running job
				finishRunning(int(op & 0x3f))
			case 3: // step every running job and wait until its pending resize applied
				for _, sl := range live {
					if sl.h.Status().State != StateRunning {
						continue
					}
					checkpoint(t, sl.j)
				}
			}
			check()
		}
		for len(live) > 0 {
			n := len(live)
			finishRunning(0)
			check()
			if len(live) == n {
				// Only queued jobs remain runnable after running ones
				// drained; stepping is not needed — dispatch happens on
				// completion. If nothing is running and nothing started,
				// the dispatcher is wedged.
				t.Fatalf("allocator wedged with %d live jobs and none running", n)
			}
		}
		m := s.Metrics()
		if m.InUse != 0 || m.Queued != 0 || m.Running != 0 {
			t.Fatalf("not idle after all jobs finished: %+v", m)
		}
	})
}
