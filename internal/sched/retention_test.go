package sched

import (
	"errors"
	"testing"
)

// The job table is bounded: only the maxRetired most recently finished
// jobs stay listed. An older ID answers exactly like one never issued, a
// Handle taken at submit keeps working, and a job still running is never
// dropped however many finish around it.
func TestSchedulerForgetsOldestFinishedJobs(t *testing.T) {
	s := New(Config{Procs: 2})
	defer s.Close()
	live := newGate("live", 1)
	liveH, err := s.Submit(live)
	if err != nil {
		t.Fatal(err)
	}
	<-live.started

	const extra = 50
	handles := make([]*Handle, 0, maxRetired+extra)
	for i := 0; i < maxRetired+extra; i++ {
		h, err := s.Submit(NewFuncJob("trivial", 1, func(*Grant) error { return nil }))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if err := waitDone(t, h); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		handles = append(handles, h)
	}

	for _, h := range handles[:extra] {
		if _, err := s.Handle(h.ID()); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Handle(%d) of a forgotten job: err = %v, want ErrNotFound", h.ID(), err)
		}
		if err := s.Cancel(h.ID()); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Cancel(%d) of a forgotten job: err = %v, want ErrNotFound", h.ID(), err)
		}
	}
	if st := handles[0].Status(); st.State != StateDone {
		t.Fatalf("held handle to a forgotten job reports %v, want done", st.State)
	}

	// The running job, then the retained finished ones in submission order.
	jobs := s.Jobs()
	if len(jobs) != 1+maxRetired {
		t.Fatalf("Jobs() lists %d, want %d", len(jobs), 1+maxRetired)
	}
	if jobs[0].ID != liveH.ID() || jobs[0].State != StateRunning {
		t.Fatalf("running job lost its place: %+v", jobs[0])
	}
	for i, st := range jobs[1:] {
		if want := handles[extra+i].ID(); st.ID != want {
			t.Fatalf("Jobs()[%d].ID = %d, want %d", 1+i, st.ID, want)
		}
	}

	live.finish <- nil
	if err := waitDone(t, liveH); err != nil {
		t.Fatal(err)
	}
	// The table was full, so retiring the live job forgets one more.
	if _, err := s.Handle(handles[extra].ID()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oldest retained job survived a further finish: %v", err)
	}
	if _, err := s.Handle(liveH.ID()); err != nil {
		t.Fatalf("just-finished job: %v", err)
	}
}
