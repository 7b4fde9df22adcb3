package analyze

import (
	"fmt"
	"sort"

	"repro/internal/obs"
)

// ClusterWorkerStep is one worker's lane in one lockstep step.
type ClusterWorkerStep struct {
	// Node is the worker's node tag.
	Node string `json:"node"`
	// RPCNs is the coordinator-observed round-trip for this worker's
	// step RPC — the straggler race is over these.
	RPCNs int64 `json:"rpc_ns"`
	// ComputeNs is the worker-reported solver step time.
	ComputeNs int64 `json:"compute_ns"`
	// ExchangeNs is the rest of the RPC, RPCNs − ComputeNs: the planes
	// and snapshots on the wire both ways (HTTP, framing) and the
	// worker's handling of them (plane decode, boundary capture,
	// checkpoint snapshots).
	ExchangeNs int64 `json:"exchange_ns"`
	// Partial marks a lane whose worker-side spans were missing from
	// the timeline (ring wraparound, failed pull): ComputeNs then
	// falls back to RPCNs and ExchangeNs to zero.
	Partial bool `json:"partial,omitempty"`
}

// ClusterStep is the exact-sum attribution of one lockstep step:
//
//	WallNs = ComputeNs + ExchangeNs + StragglerNs + FailoverNs + CollectNs
//
// ComputeNs and ExchangeNs are per-worker means (the work everyone
// did in parallel; a lane's two sum to its RPC), StragglerNs is how
// far the slowest worker's RPC ran past the mean RPC (the lockstep
// barrier's load imbalance), FailoverNs is recovery time charged to
// steps that replayed, and CollectNs is the coordinator's step wall
// minus its slowest RPC: its own fan-out, fold and plane routing. It
// is defined as the remainder, so the identity closes exactly unless
// it would go negative (a coordinator wall shorter than an RPC it
// timed), which is reported as Closed=false with the deficit in
// ResidualNs.
type ClusterStep struct {
	Step        int64               `json:"step"`
	WallNs      int64               `json:"wall_ns"`
	ComputeNs   int64               `json:"compute_ns"`
	ExchangeNs  int64               `json:"exchange_ns"`
	StragglerNs int64               `json:"straggler_ns"`
	FailoverNs  int64               `json:"failover_ns"`
	CollectNs   int64               `json:"collect_ns"`
	ResidualNs  int64               `json:"residual_ns"`
	Closed      bool                `json:"closed"`
	Straggler   string              `json:"straggler,omitempty"`
	Partial     bool                `json:"partial,omitempty"`
	Verdict     string              `json:"verdict"` // "confirmed" or "plausible"
	Workers     []ClusterWorkerStep `json:"workers,omitempty"`
}

// StragglerCount is one worker's straggler tally over a solve.
type StragglerCount struct {
	Node        string `json:"node"`
	Steps       int    `json:"steps"`
	StragglerNs int64  `json:"straggler_ns"`
}

// ClusterSolve is the cluster report for one coordinator-assigned
// solve id.
type ClusterSolve struct {
	Trace string `json:"trace"`
	Job   string `json:"job"`
	// Steps are the per-step attributions, in step order.
	Steps []ClusterStep `json:"steps"`
	// Totals sums the step attributions (Step = step count, Straggler
	// = the most frequent straggler). Failover time from rounds that
	// never replayed to a successful step is included here (in both
	// WallNs and FailoverNs, keeping the identity closed).
	Totals ClusterStep `json:"totals"`
	// Stragglers tallies which worker lost the lockstep race how
	// often, sorted by time lost (descending).
	Stragglers []StragglerCount `json:"stragglers,omitempty"`
	// ExchangeBarrierShare is the solve's headline: the fraction of
	// total wall time spent exchanging boundary planes and waiting
	// for stragglers at the lockstep barrier — the distributed
	// analogue of the paper's synchronization overhead.
	ExchangeBarrierShare float64 `json:"exchange_barrier_share"`
	Closed               bool    `json:"closed"`
	Partial              bool    `json:"partial,omitempty"`
}

// ClusterReport is the fleet-wide critical-path report.
type ClusterReport struct {
	Schema int `json:"schema"`
	// Nodes are the distinct node tags seen, sorted.
	Nodes []string `json:"nodes"`
	// Events is how many timeline events the analysis consumed.
	Events int `json:"events"`
	// Solves are the per-solve reports, in first-appearance order.
	Solves []ClusterSolve `json:"solves"`
	// ExchangeBarrierShare is the wall-weighted headline across all
	// solves.
	ExchangeBarrierShare float64 `json:"exchange_barrier_share"`
	// Closed reports whether every step of every solve closed its
	// attribution identity exactly.
	Closed bool `json:"closed"`
	// Truncated reports ring wraparound anywhere in the fleet:
	// DroppedEvents counts lost events per node. Steps that lost a
	// worker's spans to the wrap degrade to Verdict "plausible"
	// rather than mis-closing.
	Truncated     bool              `json:"truncated,omitempty"`
	DroppedEvents map[string]uint64 `json:"dropped_events,omitempty"`
}

// clusterStepKey indexes per-step state within one solve.
type clusterStepKey struct {
	trace string
	step  int64
}

// clusterLaneKey indexes one worker's spans within one step.
type clusterLaneKey struct {
	trace string
	step  int64
	node  string
}

// ClusterAnalyze reconstructs per-step cross-node attribution from a
// merged fleet timeline (cluster.ReadTimeline's, or node-tagged JSONL
// merged offline). Only events carrying a Trace correlation id
// participate; single-node traces yield an empty report.
//
// Failover replays make a (worker, step) pair appear more than once;
// the last occurrence wins, matching the state the surviving history
// was computed from.
func ClusterAnalyze(events []obs.Event) *ClusterReport {
	rep := &ClusterReport{Schema: Schema, Events: len(events), Closed: true}

	nodes := map[string]struct{}{}
	walls := map[clusterStepKey]int64{}   // coordinator step span
	jobs := map[string]string{}           // trace -> job name
	order := []string{}                   // traces in first-appearance order
	stepsSeen := map[string][]int64{}     // trace -> step numbers in order
	rpc := map[clusterLaneKey]int64{}     // coordinator-observed RPC per worker
	compute := map[clusterLaneKey]int64{} // worker-side solver span
	laneOrder := map[clusterStepKey][]string{}
	failover := map[clusterStepKey]int64{} // recovery time charged to the replayed step
	orphanFailover := map[string]int64{}   // failover with no surviving step (aborted solves)
	dropped := map[string]uint64{}

	seenTrace := func(trace, job string) {
		if _, ok := jobs[trace]; !ok {
			jobs[trace] = job
			order = append(order, trace)
		}
	}

	for _, e := range events {
		if e.Node != "" {
			nodes[e.Node] = struct{}{}
		}
		if e.Kind == obs.KindTraceDropped {
			node := e.Node
			if node == "" {
				node = obs.CoordNode
			}
			dropped[node] += uint64(e.A)
			continue
		}
		if e.Trace == "" {
			continue
		}
		sk := clusterStepKey{e.Trace, e.Epoch}
		lk := clusterLaneKey{e.Trace, e.Epoch, e.Node}
		switch e.Kind {
		case obs.KindShardStep:
			if e.Node == obs.CoordNode {
				seenTrace(e.Trace, e.Name)
				if _, ok := walls[sk]; !ok {
					stepsSeen[e.Trace] = append(stepsSeen[e.Trace], e.Epoch)
				}
				walls[sk] = int64(e.Dur)
			} else {
				compute[lk] = int64(e.Dur)
			}
		case obs.KindStepRPC:
			seenTrace(e.Trace, e.Name)
			if _, ok := rpc[lk]; !ok {
				laneOrder[sk] = append(laneOrder[sk], e.Node)
			}
			rpc[lk] = int64(e.Dur)
		case obs.KindFailover:
			if e.Dur > 0 {
				seenTrace(e.Trace, e.Name)
				failover[sk] += int64(e.Dur)
			}
		}
	}

	// Failover charged to epochs that never reached a successful
	// round (the solve aborted mid-recovery) still belongs to its
	// solve's totals.
	for sk, ns := range failover {
		if _, ok := walls[sk]; !ok {
			orphanFailover[sk.trace] += ns
		}
	}

	var fleetWall, fleetExchBarrier int64
	for _, trace := range order {
		solve := ClusterSolve{Trace: trace, Job: jobs[trace], Closed: true}
		steps := stepsSeen[trace]
		sort.Slice(steps, func(i, j int) bool { return steps[i] < steps[j] })
		counts := map[string]*StragglerCount{}
		for _, s := range steps {
			sk := clusterStepKey{trace, s}
			st := attributeStep(sk, walls[sk], failover[sk], laneOrder[sk], rpc, compute)
			if c, ok := counts[st.Straggler]; ok {
				c.Steps++
				c.StragglerNs += st.StragglerNs
			} else if st.Straggler != "" {
				counts[st.Straggler] = &StragglerCount{Node: st.Straggler, Steps: 1, StragglerNs: st.StragglerNs}
			}
			solve.Totals.WallNs += st.WallNs
			solve.Totals.ComputeNs += st.ComputeNs
			solve.Totals.ExchangeNs += st.ExchangeNs
			solve.Totals.StragglerNs += st.StragglerNs
			solve.Totals.FailoverNs += st.FailoverNs
			solve.Totals.CollectNs += st.CollectNs
			solve.Totals.ResidualNs += st.ResidualNs
			solve.Closed = solve.Closed && st.Closed
			solve.Partial = solve.Partial || st.Partial
			solve.Steps = append(solve.Steps, st)
		}
		if orphan := orphanFailover[trace]; orphan > 0 {
			solve.Totals.WallNs += orphan
			solve.Totals.FailoverNs += orphan
		}
		solve.Totals.Step = int64(len(solve.Steps))
		solve.Totals.Closed = solve.Closed
		solve.Totals.Partial = solve.Partial
		solve.Totals.Verdict = verdict(solve.Partial)
		for _, c := range counts {
			solve.Stragglers = append(solve.Stragglers, *c)
		}
		sort.Slice(solve.Stragglers, func(i, j int) bool {
			a, b := solve.Stragglers[i], solve.Stragglers[j]
			if a.StragglerNs != b.StragglerNs {
				return a.StragglerNs > b.StragglerNs
			}
			return a.Node < b.Node
		})
		if len(solve.Stragglers) > 0 {
			solve.Totals.Straggler = solve.Stragglers[0].Node
		}
		if solve.Totals.WallNs > 0 {
			solve.ExchangeBarrierShare = float64(solve.Totals.ExchangeNs+solve.Totals.StragglerNs) /
				float64(solve.Totals.WallNs)
		}
		fleetWall += solve.Totals.WallNs
		fleetExchBarrier += solve.Totals.ExchangeNs + solve.Totals.StragglerNs
		rep.Closed = rep.Closed && solve.Closed
		rep.Solves = append(rep.Solves, solve)
	}

	if fleetWall > 0 {
		rep.ExchangeBarrierShare = float64(fleetExchBarrier) / float64(fleetWall)
	}
	for n := range nodes {
		rep.Nodes = append(rep.Nodes, n)
	}
	sort.Strings(rep.Nodes)
	if len(dropped) > 0 {
		rep.Truncated = true
		rep.DroppedEvents = dropped
	}
	return rep
}

// attributeStep builds one step's exact-sum attribution.
func attributeStep(sk clusterStepKey, wall, failoverNs int64, lanes []string,
	rpc, compute map[clusterLaneKey]int64) ClusterStep {

	st := ClusterStep{Step: sk.step, WallNs: wall + failoverNs, FailoverNs: failoverNs}

	var sumCompute, sumExchange, sumBusy, maxBusy int64
	sorted := append([]string(nil), lanes...)
	sort.Strings(sorted)
	for _, node := range sorted {
		lk := clusterLaneKey{sk.trace, sk.step, node}
		lane := ClusterWorkerStep{Node: node, RPCNs: rpc[lk]}
		if c, ok := compute[lk]; ok {
			// Whatever of the RPC the solver did not spend is the
			// exchange, wire included. A solver span longer than its
			// RPC (clocks at odd rates) exchanges nothing.
			lane.ComputeNs = c
			lane.ExchangeNs = max(0, lane.RPCNs-c)
		} else {
			// The worker's own spans never arrived (ring wrap, failed
			// pull): fall back to charging its whole RPC as compute —
			// the sum still closes, but only plausibly.
			lane.ComputeNs = lane.RPCNs
			lane.Partial = true
			st.Partial = true
		}
		busy := lane.ComputeNs + lane.ExchangeNs // the RPC, or the longer solver span
		sumCompute += lane.ComputeNs
		sumExchange += lane.ExchangeNs
		sumBusy += busy
		// Straggler tie-break: lanes iterate in sorted node order and
		// the comparison is strict, so the lexicographically first of
		// the slowest workers is named.
		if busy > maxBusy {
			maxBusy = busy
			st.Straggler = node
		}
		st.Workers = append(st.Workers, lane)
	}
	if w := int64(len(sorted)); w > 0 {
		st.ComputeNs = sumCompute / w
		st.ExchangeNs = sumExchange / w
		st.StragglerNs = maxBusy - sumBusy/w
	}
	// Collect is the remainder, so the five-term identity closes
	// exactly by construction; a negative remainder (RPCs or worker
	// spans claiming more time than the coordinator's step wall) is
	// the one way closure fails, and is surfaced rather than clamped
	// away.
	rem := st.WallNs - st.ComputeNs - st.ExchangeNs - st.StragglerNs - st.FailoverNs
	if rem >= 0 {
		st.CollectNs = rem
		st.Closed = true
	} else {
		st.ResidualNs = rem
	}
	st.Verdict = verdict(st.Partial)
	return st
}

func verdict(partial bool) string {
	if partial {
		return "plausible"
	}
	return "confirmed"
}

// CheckClusterClosure verifies every step's five-term identity in a
// report, returning a descriptive error for the first violation —
// the tracetool cluster gate.
func CheckClusterClosure(rep *ClusterReport) error {
	for _, s := range rep.Solves {
		for _, st := range s.Steps {
			sum := st.ComputeNs + st.ExchangeNs + st.StragglerNs + st.FailoverNs + st.CollectNs + st.ResidualNs
			if sum != st.WallNs || !st.Closed {
				return fmt.Errorf("solve %s step %d: attribution does not close: compute %d + exchange %d + straggler %d + failover %d + collect %d + residual %d = %d, wall %d",
					s.Trace, st.Step, st.ComputeNs, st.ExchangeNs, st.StragglerNs, st.FailoverNs, st.CollectNs, st.ResidualNs, sum, st.WallNs)
			}
		}
	}
	return nil
}
