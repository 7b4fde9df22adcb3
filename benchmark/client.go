package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// newHTTPClient returns the load generator's one HTTP client, capped at
// conns connections per daemon (one per closed-loop client goroutine).
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body) // a short read only costs the connection's reuse
	resp.Body.Close()
}

// jobStatus is the part of f3dd's JobStatus reply the benchmark reads.
type jobStatus struct {
	ID         uint64  `json:"id"`
	State      string  `json:"state"`
	Granted    int     `json:"granted"`
	Resizes    int     `json:"resizes"`
	SyncEvents uint64  `json:"sync_events"`
	WaitSec    float64 `json:"wait_sec"`
	RunSec     float64 `json:"run_sec"`
	Err        string  `json:"error"`
}

// Result polling follows a fixed schedule: once immediately after the
// submit returns, then after 100us, doubling up to a 2ms cap.
const (
	pollFirstWait = 100 * time.Microsecond
	pollMaxWait   = 2 * time.Millisecond
	jobDeadline   = 60 * time.Second
)

// jobResult is one closed-loop operation: submit, then poll the result
// endpoint until the job is terminal.
type jobResult struct {
	spec     *jobSpec
	arm      int
	pair     int       // jobs compared across arms of the traced pass share it
	start    time.Time // submit sent
	end      time.Time // terminal result seen
	status   jobStatus
	ok       bool // ended "done"
	rejected bool // submit answered 429 or 503
	err      string

	submitNs int64
	polls    int
	pollNs   []int64 // per-poll round trips, traced arms only
	// grantNs integrates the grant each poll reported over the time
	// since the previous poll, while the job was running; runNs is that
	// observed running time. Traced arms only.
	grantNs, runNs int64
}

func (r *jobResult) latency() time.Duration { return r.end.Sub(r.start) }

// meanGranted is the job's time-weighted processor grant as the polls
// saw it; a job too short to be seen running reports its final grant.
func (r *jobResult) meanGranted() float64 {
	if r.runNs == 0 {
		return float64(r.status.Granted)
	}
	return float64(r.grantNs) / float64(r.runNs)
}

// tracing says what a job run records beyond its latency and final
// status: nothing (nil), or spans into rec relative to epoch.
type tracing struct {
	rec   *recorder
	epoch time.Time
}

func (t *tracing) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// runJob submits body to the daemon at base and polls
// GET /jobs/{id}/result until it stops answering 202.
func runJob(hc *http.Client, base string, spec *jobSpec, body []byte, tr *tracing) jobResult {
	res := jobResult{spec: spec, start: time.Now()}
	fail := func(format string, args ...any) jobResult {
		res.end = time.Now()
		res.err = fmt.Sprintf(format, args...)
		return res
	}

	resp, err := hc.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fail("submit: %v", err)
	}
	err = json.NewDecoder(resp.Body).Decode(&res.status)
	drain(resp)
	submitted := time.Now()
	res.submitNs = submitted.Sub(res.start).Nanoseconds()
	if resp.StatusCode != http.StatusAccepted {
		res.rejected = resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
		return fail("submit: HTTP %d", resp.StatusCode)
	}
	if err != nil {
		return fail("submit: decode reply: %v", err)
	}

	var polls []span
	seen := submitted // when the job's state was last observed
	url := base + "/jobs/" + strconv.FormatUint(res.status.ID, 10) + "/result"
	wait := time.Duration(0)
	for {
		if wait > 0 {
			time.Sleep(wait)
		}
		t0 := time.Now()
		resp, err := hc.Get(url)
		if err != nil {
			return fail("poll: %v", err)
		}
		var st jobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		drain(resp)
		t1 := time.Now()
		res.polls++
		if tr != nil {
			res.pollNs = append(res.pollNs, t1.Sub(t0).Nanoseconds())
			polls = append(polls, span{Name: "poll", Start: tr.ns(t0), End: tr.ns(t1)})
			if err == nil && st.State == "running" {
				res.grantNs += int64(st.Granted) * t1.Sub(seen).Nanoseconds()
				res.runNs += t1.Sub(seen).Nanoseconds()
			}
			seen = t1
		}
		if err != nil {
			return fail("poll: decode reply: %v", err)
		}
		if resp.StatusCode != http.StatusAccepted {
			res.end = t1
			res.status = st
			res.ok = resp.StatusCode == http.StatusOK && st.State == "done"
			if !res.ok {
				res.err = fmt.Sprintf("result: HTTP %d state %q %s", resp.StatusCode, st.State, st.Err)
			}
			break
		}
		if t1.Sub(res.start) > jobDeadline {
			return fail("poll: job %d not terminal after %s", res.status.ID, jobDeadline)
		}
		switch {
		case wait == 0:
			wait = pollFirstWait
		case wait < pollMaxWait:
			wait = min(2*wait, pollMaxWait)
		}
	}
	if tr != nil {
		tr.recordJob(&res, submitted, polls)
	}
	return res
}

// recordJob writes one job's span tree: job -> submit, queued, running,
// poll x n. queued and running are the daemon's own wait_sec and
// run_sec; the daemon reports durations, not instants, so they are
// placed from the middle of the submit round trip (the usual RTT
// midpoint estimate) and moved back if that would leave the job span.
// What no child covers is the job's self time: polling slack and client
// work.
func (t *tracing) recordJob(res *jobResult, submitted time.Time, polls []span) {
	trace := t.rec.id()
	root := span{Trace: trace, Span: t.rec.id(), Name: "job", Start: t.ns(res.start), End: t.ns(res.end)}
	spans := []span{root, {Name: "submit", Start: root.Start, End: t.ns(submitted)}}

	waitNs := int64(res.status.WaitSec * 1e9)
	runNs := int64(res.status.RunSec * 1e9)
	q0 := root.Start + res.submitNs/2
	if q0+waitNs+runNs > root.End {
		q0 = max(root.Start, root.End-waitNs-runNs)
	}
	q1 := min(q0+waitNs, root.End)
	r1 := min(q1+runNs, root.End)
	spans = append(spans,
		span{Name: "queued", Start: q0, End: q1},
		span{Name: "running", Start: q1, End: r1})
	spans = append(spans, polls...)
	for i := 1; i < len(spans); i++ {
		spans[i].Trace, spans[i].Span, spans[i].Parent = trace, t.rec.id(), root.Span
	}
	t.rec.add(spans...)
}

// getBody fetches url and returns the body and the round-trip time; any
// status but 200 is an error.
func getBody(hc *http.Client, url string) (body []byte, rtt time.Duration, err error) {
	t0 := time.Now()
	resp, err := hc.Get(url)
	if err != nil {
		return nil, 0, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt = time.Since(t0)
	if err != nil {
		return nil, rtt, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, rtt, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return body, rtt, nil
}
