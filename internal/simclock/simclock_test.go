package simclock

import (
	"testing"
	"time"
)

func TestVirtualNowAndAdvance(t *testing.T) {
	start := time.Unix(1000, 0)
	v := NewVirtual(start)
	if !v.Now().Equal(start) {
		t.Fatalf("Now() = %v, want %v", v.Now(), start)
	}
	v.Advance(3 * time.Second)
	if want := start.Add(3 * time.Second); !v.Now().Equal(want) {
		t.Fatalf("Now() after Advance = %v, want %v", v.Now(), want)
	}
	if n := v.Advance(0); n != 0 {
		t.Fatalf("Advance(0) fired %d timers, want 0", n)
	}
}

func TestVirtualAfterFiresInDeadlineOrder(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	c3 := v.After(3 * time.Second)
	c1 := v.After(1 * time.Second)
	c2 := v.After(2 * time.Second)
	if v.Waiters() != 3 {
		t.Fatalf("Waiters() = %d, want 3", v.Waiters())
	}
	if n := v.Advance(10 * time.Second); n != 3 {
		t.Fatalf("Advance fired %d, want 3", n)
	}
	// All three channels hold their fire time; deadline order is
	// reflected in the delivered timestamps.
	t1, t2, t3 := <-c1, <-c2, <-c3
	if !t1.Before(t2) || !t2.Before(t3) {
		t.Fatalf("fire times out of order: %v, %v, %v", t1, t2, t3)
	}
	if v.Waiters() != 0 {
		t.Fatalf("Waiters() after fire = %d, want 0", v.Waiters())
	}
}

func TestVirtualAfterNonPositiveFiresImmediately(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	select {
	case <-v.After(0):
	default:
		t.Fatal("After(0) did not fire immediately")
	}
	select {
	case <-v.After(-time.Second):
	default:
		t.Fatal("After(-1s) did not fire immediately")
	}
}

func TestVirtualPartialAdvance(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	c1 := v.After(1 * time.Second)
	c5 := v.After(5 * time.Second)
	if n := v.Advance(2 * time.Second); n != 1 {
		t.Fatalf("Advance(2s) fired %d, want 1", n)
	}
	<-c1
	select {
	case <-c5:
		t.Fatal("5s timer fired after only 2s")
	default:
	}
	if n := v.Advance(3 * time.Second); n != 1 {
		t.Fatalf("Advance(3s) fired %d, want 1", n)
	}
	<-c5
}

func TestVirtualAdvanceToNext(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	if v.AdvanceToNext() {
		t.Fatal("AdvanceToNext with no timers reported true")
	}
	c := v.After(7 * time.Second)
	if !v.AdvanceToNext() {
		t.Fatal("AdvanceToNext with a pending timer reported false")
	}
	<-c
	if want := time.Unix(7, 0); !v.Now().Equal(want) {
		t.Fatalf("Now() = %v, want %v", v.Now(), want)
	}
}

func TestVirtualSleepUnblocksOnAdvance(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	done := make(chan struct{})
	go func() {
		v.Sleep(time.Minute)
		close(done)
	}()
	// Wait for the sleeper to register, then advance.
	deadline := time.Now().Add(10 * time.Second)
	for v.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sleeper never registered")
		}
		time.Sleep(time.Microsecond)
	}
	v.Advance(time.Minute)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Sleep did not return after Advance")
	}
}

func TestRealClockBasics(t *testing.T) {
	var c Clock = Real{}
	before := time.Now()
	if c.Now().Before(before) {
		t.Fatal("Real.Now() went backwards")
	}
	select {
	case <-c.After(time.Millisecond):
	case <-time.After(10 * time.Second):
		t.Fatal("Real.After never fired")
	}
}

func TestVirtualTimerStop(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	c, stop := v.Timer(5 * time.Second)
	kept, stopKept := v.Timer(time.Second)
	if v.Waiters() != 2 {
		t.Fatalf("Waiters() = %d, want 2", v.Waiters())
	}
	stop()
	stop()
	if v.Waiters() != 1 {
		t.Fatalf("after stop: Waiters() = %d, want 1", v.Waiters())
	}
	if n := v.Advance(10 * time.Second); n != 1 {
		t.Fatalf("Advance fired %d, want only the timer left running", n)
	}
	<-kept
	stopKept() // a fired timer: nothing to take out
	select {
	case <-c:
		t.Fatal("a stopped timer fired")
	default:
	}
	if v.Waiters() != 0 {
		t.Fatalf("Waiters() = %d, want 0", v.Waiters())
	}
}
