//go:build unix

package parloop

import (
	"runtime"
	"syscall"
	"testing"
	"time"
)

// settledGoroutines returns the goroutine count once it has held still
// for three block times in a row, so helpers stopped earlier have exited.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for still := 0; still < 3; {
		time.Sleep(blockTime)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestResizeGrowStartsOneHelper: a grow by one starts exactly one helper
// goroutine and keeps the survivors' channels; a shrink stops only the
// surplus.
func TestResizeGrowStartsOneHelper(t *testing.T) {
	tm := NewTeam(2)
	defer tm.Close()
	checkTeamWorks(t, tm)
	survivor := tm.cmds[0]
	before := settledGoroutines()
	tm.Resize(3)
	if got := settledGoroutines() - before; got != 1 {
		t.Errorf("Resize(2→3) started %d goroutines, want 1", got)
	}
	if tm.cmds[0] != survivor {
		t.Error("Resize(2→3) replaced the surviving helper")
	}
	checkTeamWorks(t, tm)
	tm.Resize(2)
	if got := settledGoroutines() - before; got != 0 {
		t.Errorf("Resize(3→2) left %d extra goroutines, want 0", got)
	}
	if tm.cmds[0] != survivor {
		t.Error("Resize(3→2) replaced the surviving helper")
	}
	checkTeamWorks(t, tm)
}

// TestClosedAndShrunkTeamsGoQuiet: the goroutine count returns to its
// baseline after Close and after a shrink to one worker, with the team
// used before each.
func TestClosedAndShrunkTeamsGoQuiet(t *testing.T) {
	base := settledGoroutines()
	tm := NewTeam(4)
	checkTeamWorks(t, tm)
	tm.Resize(1)
	if got := settledGoroutines(); got != base {
		t.Errorf("after Resize(4→1): %d goroutines, baseline %d", got, base)
	}
	tm.Resize(2)
	checkTeamWorks(t, tm)
	tm.Close()
	if got := settledGoroutines(); got != base {
		t.Errorf("after Close: %d goroutines, baseline %d", got, base)
	}
}

// TestIdleTeamParks: a two-worker team left idle for longer than the
// block time stops polling, so the process uses far less CPU time than
// the idle window (a helper that kept polling would use all of it).
func TestIdleTeamParks(t *testing.T) {
	tm := NewTeam(2)
	defer tm.Close()
	checkTeamWorks(t, tm) // the helper now polls for its next region
	time.Sleep(2 * blockTime)
	const window = 200 * time.Millisecond
	before := cpuTime(t)
	time.Sleep(window)
	if used := cpuTime(t) - before; used > window/4 {
		t.Errorf("idle two-worker team used %v of CPU in %v", used, window)
	}
}
