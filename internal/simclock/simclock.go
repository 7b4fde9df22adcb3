// Package simclock abstracts time behind a Clock interface so the
// scheduler stack can run against either the wall clock (production)
// or a virtual, manually advanced clock (deterministic tests).
//
// The virtual clock is the foundation of the chaos soak harness: job
// deadlines, retry backoffs and injected stalls all wait on the same
// Virtual instance, so a test advances simulated time explicitly and
// hundreds of timeout-laden jobs resolve in milliseconds of real time,
// in a reproducible order (timers fire in deadline order, ties in
// registration order).
package simclock

import (
	"slices"
	"sort"
	"sync"
	"time"
)

// Clock is the time source the scheduler stack depends on: Now, After
// (one value once d has elapsed), Timer (After with a stop, so a waiter
// that leaves early leaves no live timer) and Sleep.
type Clock interface {
	Now() time.Time
	After(d time.Duration) <-chan time.Time
	Timer(d time.Duration) (c <-chan time.Time, stop func())
	Sleep(d time.Duration)
}

// Real is the wall clock: a zero-cost passthrough to package time.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Timer implements Clock.
func (Real) Timer(d time.Duration) (<-chan time.Time, func()) {
	t := time.NewTimer(d)
	return t.C, func() { t.Stop() }
}

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// vtimer is one pending Virtual timer.
type vtimer struct {
	at  time.Time
	seq uint64 // registration order, the tie-break for equal deadlines
	ch  chan time.Time
}

// Virtual is a manually advanced clock. Time only moves when Advance
// (or AdvanceToNext) is called; timers due at or before the new time
// fire synchronously, in deadline order, before Advance returns. The
// zero value is not usable; call NewVirtual.
type Virtual struct {
	mu     sync.Mutex
	now    time.Time
	seq    uint64
	timers []*vtimer
}

// NewVirtual creates a virtual clock reading start.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{now: start}
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// After implements Clock. The returned channel has capacity one, so
// firing never blocks Advance even if the waiter has gone away.
// d <= 0 fires immediately.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- v.now
		return ch
	}
	v.seq++
	v.timers = append(v.timers, &vtimer{at: v.now.Add(d), seq: v.seq, ch: ch})
	return ch
}

// Timer implements Clock; stop takes the timer out of Waiters' count.
func (v *Virtual) Timer(d time.Duration) (<-chan time.Time, func()) {
	c := v.After(d)
	return c, func() {
		v.mu.Lock()
		defer v.mu.Unlock()
		v.timers = slices.DeleteFunc(v.timers, func(t *vtimer) bool { return t.ch == c })
	}
}

// Sleep implements Clock: it blocks until the virtual clock has been
// advanced past the deadline by some other goroutine.
func (v *Virtual) Sleep(d time.Duration) { <-v.After(d) }

// Waiters returns the number of pending timers — how many goroutines
// (at most) are blocked waiting for virtual time to move. Drivers use
// it to decide whether advancing the clock can unblock anything.
func (v *Virtual) Waiters() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.timers)
}

// Advance moves the clock forward by d (d < 0 panics; d == 0 is a
// no-op) and fires every timer whose deadline is now due, in deadline
// order. It returns the number of timers fired.
func (v *Virtual) Advance(d time.Duration) int {
	if d < 0 {
		panic("simclock: Advance needs d >= 0")
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.now = v.now.Add(d)
	return v.fireDueLocked()
}

// AdvanceToNext jumps the clock to the earliest pending deadline and
// fires every timer due at that instant. It reports whether any timer
// was pending; with none, the clock does not move.
func (v *Virtual) AdvanceToNext() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.timers) == 0 {
		return false
	}
	next := v.timers[0].at
	for _, t := range v.timers[1:] {
		if t.at.Before(next) {
			next = t.at
		}
	}
	v.now = next
	v.fireDueLocked()
	return true
}

// fireDueLocked delivers every due timer in (deadline, registration)
// order and removes it. Caller holds v.mu.
func (v *Virtual) fireDueLocked() int {
	var due []*vtimer
	rest := v.timers[:0]
	for _, t := range v.timers {
		if !t.at.After(v.now) {
			due = append(due, t)
		} else {
			rest = append(rest, t)
		}
	}
	v.timers = rest
	sort.Slice(due, func(i, j int) bool {
		if !due[i].at.Equal(due[j].at) {
			return due[i].at.Before(due[j].at)
		}
		return due[i].seq < due[j].seq
	})
	for _, t := range due {
		t.ch <- t.at
	}
	return len(due)
}
