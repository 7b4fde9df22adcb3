package f3d

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/euler"
	"repro/internal/parloop"
)

// ErrDiverged is the error of a time step that left the solver unusable:
// its residual or solution change is not finite, or a kernel met a
// non-physical state (euler.NonPhysical).
var ErrDiverged = errors.New("f3d: solution diverged")

// TryStep advances s one time step. It is where every driver of a step
// (Job, RunToSteady, a cluster shard, cmd/f3d) turns a kernel's
// non-physical-state panic into ErrDiverged; any other panic goes on up.
func TryStep(s Solver) (st StepStats, err error) {
	defer func() {
		r := recover()
		v := r
		if pe, ok := r.(*parloop.PanicError); ok {
			v = pe.Value
		}
		if np, ok := v.(euler.NonPhysical); ok {
			err = fmt.Errorf("%w: %v", ErrDiverged, np)
		} else if r != nil {
			panic(r)
		}
	}()
	st = s.Step()
	if d := st.Residual + st.MaxDelta; !(d <= math.MaxFloat64) { // NaN or +Inf: both are >= 0
		return st, fmt.Errorf("%w: residual %v, max|dq| %v", ErrDiverged, st.Residual, st.MaxDelta)
	}
	return st, nil
}

// History records the residual trajectory of a run — the paper's
// convergence evidence ("without introducing any changes to ... the
// convergence properties of the codes").
type History struct {
	Residuals []float64
	// Flops is the cumulative estimated floating-point work of the run.
	Flops float64
	// Converged reports whether the relative-tolerance target was met.
	Converged bool
}

// Steps returns the number of time steps recorded.
func (h *History) Steps() int { return len(h.Residuals) }

// ReductionOrders returns how many orders of magnitude the residual
// fell from the first step to the last (0 for histories shorter than
// two steps or with a zero first residual).
func (h *History) ReductionOrders() float64 {
	if len(h.Residuals) < 2 || h.Residuals[0] <= 0 {
		return 0
	}
	last := h.Residuals[len(h.Residuals)-1]
	if last <= 0 {
		return math.Inf(1)
	}
	return math.Log10(h.Residuals[0] / last)
}

// MaxDiff returns the largest absolute difference between two residual
// histories of equal length, for convergence-invariance checks.
func (h *History) MaxDiff(o *History) float64 {
	if len(h.Residuals) != len(o.Residuals) {
		panic(fmt.Sprintf("f3d: History.MaxDiff lengths %d vs %d", len(h.Residuals), len(o.Residuals)))
	}
	worst := 0.0
	for i := range h.Residuals {
		if d := math.Abs(h.Residuals[i] - o.Residuals[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// RunToSteady advances the solver until the residual falls below
// relTol times the first step's residual, or maxSteps is reached,
// returning the residual history. A zero first residual (already
// steady, e.g. uniform flow) converges immediately. A diverged step
// ends the run with the history before it and ErrDiverged, naming the
// step.
func RunToSteady(s Solver, relTol float64, maxSteps int) (History, error) {
	if relTol <= 0 || relTol >= 1 {
		panic(fmt.Sprintf("f3d: RunToSteady relTol must be in (0,1), got %g", relTol))
	}
	if maxSteps < 1 {
		panic(fmt.Sprintf("f3d: RunToSteady maxSteps must be >= 1, got %d", maxSteps))
	}
	var h History
	target := math.Inf(1)
	for i := 0; i < maxSteps; i++ {
		st, err := TryStep(s)
		if err != nil {
			return h, fmt.Errorf("f3d: step %d: %w", i+1, err)
		}
		h.Residuals = append(h.Residuals, st.Residual)
		h.Flops += st.Flops
		if i == 0 {
			if st.Residual == 0 {
				h.Converged = true
				return h, nil
			}
			target = st.Residual * relTol
			continue
		}
		if st.Residual <= target {
			h.Converged = true
			return h, nil
		}
	}
	return h, nil
}
