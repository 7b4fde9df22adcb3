package adapt

import (
	"sync"

	"repro/internal/sched"
)

// MeasuredAllocator is a sched.Allocator that corrects the stair-step
// model with measured speedups. The plateau model is an upper bound —
// it assumes perfectly divisible work and free synchronization — so a
// grant that sits on a modeled plateau can still be wasted when the
// measured speedup there is no better than one plateau down (sync-bound
// loops, Table 1 fails). Controllers feed measurements in through the
// Recorder interface (Config.Recorder); Grant and Lower then shrink a
// modeled grant to the smallest plateau whose *measured* speedup is
// within measuredTol of the modeled pick's. With no measurements
// recorded it behaves exactly like sched.PlateauAllocator, so wiring it
// in is safe before any job has run.
type MeasuredAllocator struct {
	mu   sync.Mutex
	meas map[[2]int]float64 // {m, procs} -> best measured speedup
}

// measuredTol is the relative speedup loss accepted when shrinking to a
// lower plateau.
const measuredTol = 0.02

// NewMeasuredAllocator returns a MeasuredAllocator over the paper's
// plateau policy.
func NewMeasuredAllocator() *MeasuredAllocator {
	return &MeasuredAllocator{}
}

// Record implements Recorder: it stores the best measured speedup seen
// for a job with m units of parallelism running on procs processors.
// Non-positive or absurd speedups (above procs) are clamped into
// [something, procs] rather than trusted.
func (a *MeasuredAllocator) Record(m, procs int, speedup float64) {
	if m < 1 || procs < 1 {
		return
	}
	if speedup < 0.0 || speedup != speedup { // negative or NaN
		return
	}
	if speedup > float64(procs) {
		speedup = float64(procs)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.meas == nil {
		a.meas = make(map[[2]int]float64)
	}
	k := [2]int{m, procs}
	if speedup > a.meas[k] {
		a.meas[k] = speedup
	}
}

// Measured returns the recorded speedup for (m, procs) and whether one
// exists.
func (a *MeasuredAllocator) Measured(m, procs int) (float64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	sp, ok := a.meas[[2]int{m, procs}]
	return sp, ok
}

// shrink walks g down the plateau ladder while measurements say the
// lower plateau delivers speedup within measuredTol of the current one.
func (a *MeasuredAllocator) shrink(m, g int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	for g > 1 {
		l := sched.PlateauAllocator{}.Lower(m, g)
		if l < 1 {
			break
		}
		cur, okCur := a.meas[[2]int{m, g}]
		low, okLow := a.meas[[2]int{m, l}]
		if !okCur || !okLow || low < cur*(1-measuredTol) {
			break
		}
		g = l
	}
	return g
}

// Grant implements sched.Allocator: the model grant, shrunk to the
// smallest plateau measurement says performs just as well.
func (a *MeasuredAllocator) Grant(m, avail int) int {
	g := sched.PlateauAllocator{}.Grant(m, avail)
	if g < 1 {
		return g
	}
	return a.shrink(m, g)
}

// Lower implements sched.Allocator: one modeled plateau down, then any
// further measured-equivalent shrink.
func (a *MeasuredAllocator) Lower(m, granted int) int {
	l := sched.PlateauAllocator{}.Lower(m, granted)
	if l < 1 {
		return l
	}
	return a.shrink(m, l)
}
