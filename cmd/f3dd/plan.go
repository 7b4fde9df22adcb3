package main

import (
	"errors"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/autopar/pipeline"
	"repro/internal/f3d"
	"repro/internal/grid"
	"repro/internal/obs/serve"
	"repro/internal/sched"
)

// planJob is an f3d job submitted under -autopar: the solver job plus
// the steering state GET /jobs/{id}/plan and plan_from need. It is what
// the scheduler's job table holds for the ID, so that table bounds this
// state too — the daemon keeps no map of its own.
type planJob struct {
	*f3d.Job
	// req is the original submission; a plan_from rerun inherits its
	// case.
	req submitRequest
	// prefix is what the job's phases are traced under: "<name>#<n>",
	// unique in this daemon, so same-named jobs never share evidence.
	prefix string

	mu   sync.Mutex
	plan *pipeline.Plan // set by the first successful derivation
}

// buildF3D constructs an f3d cache-solver job from a submission. Under
// -autopar the job is phase-traced, so its run leaves per-phase loops
// in the daemon trace for the planner, and wrapped as a planJob.
func (sv *server) buildF3D(req *submitRequest) (sched.Job, error) {
	j, k, l, err := parseDims(req.Dims)
	if err != nil {
		return nil, err
	}
	cfg := f3d.DefaultConfig(grid.Single(j, k, l))
	job, err := f3d.NewJob(req.Name, cfg, req.Steps, req.Pulse)
	if err != nil {
		return nil, err
	}
	if !sv.cfg.autopar {
		return job, nil
	}
	prefix := fmt.Sprintf("%s#%d", req.Name, sv.planSeq.Add(1))
	job.WithPhaseTrace(prefix)
	return &planJob{Job: job, req: *req, prefix: prefix}, nil
}

// planOf returns the job's plan, deriving it from the daemon trace the
// first time evidence is there. The derived plan is kept on the job — a
// job's plan is a stable artifact of its traced run, served identically
// on every later request even after the trace ring has moved on; a
// failed derivation is not kept, so evidence arriving later still
// yields a plan.
func (sv *server) planOf(pj *planJob) (*pipeline.Plan, error) {
	pj.mu.Lock()
	defer pj.mu.Unlock()
	if pj.plan == nil {
		plan, err := pipeline.Derive(sv.sched.Tracer().Events(), pj.prefix, pipeline.F3DStructure(pj.prefix))
		if err != nil {
			return nil, err
		}
		pj.plan = plan
	}
	return pj.plan, nil
}

// applyPlanFrom resolves a plan_from submission: derive (or fetch) the
// source job's plan from the daemon trace and lower it onto the new
// job as its step shape. Dims/pulse/steps default to the source
// job's, so `{"kind":"f3d","plan_from":N}` reruns the same case under
// the plan.
func (sv *server) applyPlanFrom(req *submitRequest) (sched.Job, error) {
	if !sv.cfg.autopar {
		return nil, fmt.Errorf("plan_from needs the daemon started with -autopar")
	}
	src, ok := sv.sched.Submitted(req.PlanFrom).(*planJob)
	if !ok {
		return nil, fmt.Errorf("plan_from: job %d has no plan (not an -autopar f3d job)", req.PlanFrom)
	}
	plan, err := sv.planOf(src)
	if err != nil {
		return nil, fmt.Errorf("plan_from: job %d: %w", req.PlanFrom, err)
	}
	if req.Dims == "" {
		req.Dims = src.req.Dims
	}
	if req.Pulse == 0 {
		req.Pulse = src.req.Pulse
	}
	if req.Steps == 0 {
		req.Steps = src.req.Steps
	}
	if err := checkSteps(req); err != nil {
		return nil, err
	}
	job, err := sv.buildF3D(req)
	if err != nil {
		return nil, err
	}
	job.(*planJob).WithShape(pipeline.ShapeFromPlan(plan, src.prefix))
	return job, nil
}

// handlePlan serves GET /jobs/{id}/plan: the per-loop plan derived
// from the job's phase trace, with machine-checkable rationale. Jobs
// not submitted under -autopar (or non-f3d jobs) answer 404 so
// clients can feature-detect; a traced-out job whose
// evidence never made it into the ring answers 409.
func (sv *server) handlePlan(w http.ResponseWriter, r *http.Request) {
	id, ok := jobID(w, r)
	if !ok {
		return
	}
	st, err := sv.sched.Job(id)
	if err != nil {
		serve.Error(w, http.StatusNotFound, err.Error())
		return
	}
	pj, ok := sv.sched.Submitted(id).(*planJob)
	if !ok {
		serve.Error(w, http.StatusNotFound, fmt.Sprintf("job %d has no auto-parallelization plan", id))
		return
	}
	plan, err := sv.planOf(pj)
	if err != nil {
		if errors.Is(err, pipeline.ErrNoEvidence) {
			serve.Error(w, http.StatusConflict,
				fmt.Sprintf("job %d: %v (enable tracing and let the job run)", id, err))
			return
		}
		serve.Error(w, http.StatusInternalServerError, err.Error())
		return
	}
	serve.WriteJSON(w, http.StatusOK, pipeline.JobPlan{
		ID:    id,
		Name:  st.Name,
		State: st.State.String(),
		Plan:  plan,
	})
}
