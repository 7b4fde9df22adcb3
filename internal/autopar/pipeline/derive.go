package pipeline

import (
	"errors"
	"strings"

	"repro/internal/obs"
)

// ErrNoEvidence: the trace carried no loop evidence under the job's
// phase prefix (tracing off, or the job never stepped). Servers map it
// to a conflict response, distinct from a job that was never planned.
var ErrNoEvidence = errors.New("pipeline: no loop evidence in trace")

// Derive plans one job out of a daemon-wide trace: the events labelled
// "<prefix>/…" (the phases a job traced with f3d.Job.WithPhaseTrace
// emits) are analyzed, joined with the declared structure and run
// through the planner. It is a pure function of its arguments and
// keeps nothing; a server that promises a job's plan as a stable
// artifact of its traced run caches the result on the job.
func Derive(events []obs.Event, prefix string, structs []LoopStructure) (*Plan, error) {
	want := prefix + "/"
	var filtered []obs.Event
	for _, e := range events {
		if strings.HasPrefix(e.Name, want) {
			filtered = append(filtered, e)
		}
	}
	ev := FromTrace(filtered, structs, prefix)
	if len(ev.Loops) == 0 {
		return nil, ErrNoEvidence
	}
	return PlanFromEvidence(ev), nil
}

// JobPlan is the wire shape a daemon serves for GET /jobs/{id}/plan.
type JobPlan struct {
	ID    uint64 `json:"id"`
	Name  string `json:"name"`
	State string `json:"state"`
	Plan  *Plan  `json:"plan"`
}
