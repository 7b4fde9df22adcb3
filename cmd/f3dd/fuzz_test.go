package main

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzSubmitRequest: POST /jobs bodies are bytes from another process.
// For arbitrary input, decoding and job construction — everything
// handleSubmit does before it touches the queue — must never panic;
// every failure is an error (which the handler answers with a 400),
// and anything accepted respects the submission limits. Nothing is
// submitted, so no job runs.
func FuzzSubmitRequest(f *testing.F) {
	for _, seed := range []string{
		``, `{`, `not json`, `{"kind": 42}`, `{"kind":"synthetic"} trailing`,
		`{"kind":"synthetic","parallelism":15,"steps":400,"work_cycles":2e6}`,
		`{"kind":"synthetic","work_scale":-1}`,
		`{"kind":"f3d","dims":"21x17x13","steps":15,"pulse":0.05}`,
		`{"kind":"f3d","dims":"129x1x1"}`, `{"kind":"f3d","dims":"128x128x128"}`,
		`{"kind":"f3d","dims":"3x3"}`, `{"kind":"f3d","dims":"2x2x2"}`,
		`{"kind":"f3d","plan_from":1}`, `{"kind":"F3D","steps":1000001,"dims":"6x5x4"}`,
		`{"kind":"euler","points":2048,"steps":30}`, `{"kind":"euler","points":-1}`,
		`{"kind":"synthetic","sync_events":1000000000000}`, `{"kind":"synthetic","sync_events":65537}`,
		`{"kind":"synthetic","work_cycles":9007199254740992}`,
		`{"kind":"synthetic","serial_cycles":1e6,"work_scale":1e10}`,
		`{"kind":"adaptive","parallelism":96,"steps":120}`,
		`{"kind":"bogus"}`, `{"kind":"euler","bogus":1}`, `{"timeout_sec":-1,"kind":"euler"}`,
		`{"kind":"f3d","dims":"6x5x4","timeout_sec":1e10}`,
		`{"kind":"f3d","dims":"6x5x4","pulse":-2}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeSubmit(bytes.NewReader(body))
		if err != nil {
			return
		}
		job, err := buildJob(&req)
		if err != nil {
			if job != nil {
				t.Fatalf("buildJob returned both a job and an error: %v", err)
			}
			return
		}
		if job == nil {
			t.Fatal("buildJob returned neither a job nor an error")
		}
		if req.Steps < 1 || req.Steps > maxSteps {
			t.Fatalf("accepted steps %d outside [1, %d]", req.Steps, maxSteps)
		}
		if req.TimeoutSec > maxTimeoutSec || (req.TimeoutSec > 0 && req.timeout() <= 0) {
			t.Fatalf("accepted timeout_sec %g as deadline %v", req.TimeoutSec, req.timeout())
		}
		if job.Name() == "" {
			t.Fatal("accepted job has no name")
		}
		if m := job.Parallelism(); m < 1 || m > maxPoints {
			t.Fatalf("accepted job parallelism %d outside [1, %d]", m, maxPoints)
		}
		if strings.EqualFold(req.Kind, "synthetic") &&
			(req.SyncEvents > maxParallelism || req.WorkCycles*req.WorkScale >= maxSpin || req.SerialCycles*req.WorkScale >= maxSpin) {
			t.Fatalf("accepted synthetic job past its bounds: %+v", req)
		}
		if strings.EqualFold(req.Kind, "f3d") && !(req.Pulse > -1) {
			t.Fatalf("accepted f3d pulse %v: the pulse centre's density is not positive", req.Pulse)
		}
	})
}
