package cluster

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/obs"
)

// TraceSource is a worker's trace ring as a coordinator reads it after
// a solve. Both worker transports implement it — LocalWorker
// in-process, HTTPClient over the daemon's GET /trace — so the fleet
// timeline is assembled the same way in tests and in production.
type TraceSource interface {
	// FetchTrace returns the whole ring, oldest event first, led by a
	// trace_dropped marker when wraparound lost events.
	FetchTrace() ([]obs.Event, error)
}

// ReadTimeline reads a finished solve's fleet timeline: each worker's
// ring once from its start, every event tagged with the ID the worker
// is keyed by, plus coord's ring with its drop marker (tagged
// obs.CoordNode), sorted by timestamp, then node, then sequence, so the
// order is deterministic under a virtual clock where many events share
// an instant. Timestamps are used as each process read them: the
// cluster report needs only durations. A worker whose read fails is
// left out and named in the error; its steps then read plausible.
func ReadTimeline(coord *obs.Tracer, workers map[string]TraceSource) ([]obs.Event, error) {
	ids := make([]string, 0, len(workers))
	for id := range workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var out []obs.Event
	var errs []error
	for _, id := range ids {
		events, err := workers[id].FetchTrace()
		if err != nil {
			errs = append(errs, fmt.Errorf("cluster: read trace of worker %s: %w", id, err))
			continue
		}
		for i := range events {
			events[i].Node = id
		}
		out = append(out, events...)
	}
	events, _ := coord.EventsSince(0)
	for i := range events {
		if events[i].Node == "" {
			events[i].Node = obs.CoordNode
		}
	}
	out = append(out, events...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if !a.At.Equal(b.At) {
			return a.At.Before(b.At)
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Seq < b.Seq
	})
	return out, errors.Join(errs...)
}
