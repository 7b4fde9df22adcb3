package main

// The normative metric and workload tables. BENCHMARK.json at the repo
// root is generated from them (-manifest) and a unit test keeps the two
// in step, so a metric cannot be renamed in one place only.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"serve_solo", "1 client, one f3d job at a time owns the whole f3dd grant: parloop regions and solver kernels are ~99% of latency, HTTP and scheduling ~1%"},
	{"serve_mix", "P clients, f3d+euler+synthetic jobs contend for the f3dd grant: queue wait, plateau grants, shrink-to-admit and Team.Resize are live"},
	{"serve_small", "P clients, one-step jobs plus /metrics and /healthz reads: HTTP, submit, grant, team start and poll dominate; the solver is <50% of latency"},
	{"cluster_solve", "f3dc shards one 4-zone solve over W f3dd workers: shard RPCs, base64 planes and per-step checkpoints; shards are serial so parloop does little"},
}

// metricDef describes one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen (0 for
// per-layer metrics, which have none). Exact marks counts that must
// repeat exactly between two runs of the same code.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Exact  bool
}

var endToEndDefs = []metricDef{
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "steps_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "mflops", Unit: "MFLOP/s", Better: "higher", Bound: 0.20},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

var perLayerDefs = []metricDef{
	// end-to-end numbers that exist on one workload only, whose
	// definition depends on the sample count, or (p90) whose run-to-run
	// spread on this class of host is too wide to carry a bound
	{Name: "e2e.scaling_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "e2e.latency_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.latency_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.tail_percentile", Unit: "%", Better: "higher"},
	{Name: "e2e.samples", Unit: "count", Better: "higher"},

	// cmd/f3dd
	{Name: "f3dd.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "f3dd.poll_ms", Unit: "ms", Better: "lower"},
	{Name: "f3dd.polls_per_job", Unit: "count", Better: "lower"},
	{Name: "f3dd.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "f3dd.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "f3dd.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "f3dd.rejected", Unit: "count", Better: "lower", Exact: true},
	{Name: "f3dd.rss_warm_mb", Unit: "MB", Better: "lower"},
	{Name: "f3dd.rss_end_mb", Unit: "MB", Better: "lower"},

	// internal/sched
	{Name: "sched.wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "sched.wait_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "sched.wait_share", Unit: "ratio", Better: "lower"},
	{Name: "sched.granted_mean", Unit: "count", Better: "higher"},
	{Name: "sched.resizes_per_job", Unit: "count", Better: "lower"},
	{Name: "sched.preempts", Unit: "count", Better: "lower"},
	{Name: "sched.busy_share", Unit: "ratio", Better: "higher"},
	{Name: "sched.job_overhead_us", Unit: "us", Better: "lower"},

	// internal/parloop
	{Name: "parloop.region_us", Unit: "us", Better: "lower"},
	{Name: "parloop.team_start_us", Unit: "us", Better: "lower"},
	{Name: "parloop.resize_us", Unit: "us", Better: "lower"},
	{Name: "parloop.sync_events_per_step", Unit: "count", Better: "lower", Exact: true},

	// internal/f3d
	{Name: "f3d.point_step_ns", Unit: "ns", Better: "lower"},
	{Name: "f3d.step_ms.small", Unit: "ms", Better: "lower"},
	{Name: "f3d.step_ms.medium", Unit: "ms", Better: "lower"},
	{Name: "f3d.step_ms.large", Unit: "ms", Better: "lower"},
	{Name: "f3d.step_ms_p1", Unit: "ms", Better: "lower"},
	{Name: "f3d.step_ms_pN", Unit: "ms", Better: "lower"},
	{Name: "f3d.par_speedup", Unit: "ratio", Better: "higher"},
	{Name: "f3d.job_setup_ms", Unit: "ms", Better: "lower"},
	{Name: "f3d.bitwise_ok", Unit: "bool", Better: "higher", Exact: true},

	// internal/linalg, internal/euler
	{Name: "linalg.tridiag_ns_row", Unit: "ns", Better: "lower"},
	{Name: "linalg.tridiag5_ns_row", Unit: "ns", Better: "lower"},
	{Name: "linalg.pentadiag5_ns_row", Unit: "ns", Better: "lower"},
	{Name: "euler.flux_ns_point", Unit: "ns", Better: "lower"},
	{Name: "euler.eigen_ns_point", Unit: "ns", Better: "lower"},
	{Name: "euler.sweep_point_ns", Unit: "ns", Better: "lower"},

	// internal/cluster
	{Name: "cluster.step_wall_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.rpc_step_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.coord_self_ms_step", Unit: "ms", Better: "lower"},
	{Name: "cluster.straggler_ms_step", Unit: "ms", Better: "lower"},
	{Name: "cluster.create_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.release_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.msgs_step", Unit: "count", Better: "lower", Exact: true},
	{Name: "cluster.bytes_up_step", Unit: "B", Better: "lower", Exact: true},
	{Name: "cluster.bytes_down_step", Unit: "B", Better: "lower", Exact: true},
	{Name: "cluster.checkpoint_share", Unit: "ratio", Better: "lower"},
	{Name: "cluster.workers_used", Unit: "count", Better: "higher", Exact: true},
	{Name: "cluster.history_bitwise_ok", Unit: "bool", Better: "higher", Exact: true},

	// internal/obs
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "obs.trace_overhead_spread_pct", Unit: "%", Better: "lower"},
	{Name: "obs.metrics_scrape_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.metrics_bytes", Unit: "B", Better: "lower"},
	{Name: "obs.trace_events_per_step", Unit: "count", Better: "lower", Exact: true},

	// harness and host
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.trace_overhead_spread_pct", Unit: "%", Better: "lower"},
	{Name: "bench.span_closure_ok", Unit: "bool", Better: "higher", Exact: true},
	{Name: "bench.spans", Unit: "count", Better: "higher"},
	{Name: "bench.build_s", Unit: "s", Better: "lower"},
	{Name: "host.nproc", Unit: "count", Better: "higher", Exact: true},
	{Name: "host.calib_mflops", Unit: "MFLOP/s", Better: "higher"},
	{Name: "host.calib_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "host.slowness", Unit: "ratio", Better: "lower"},
	{Name: "host.calib_drift_pct", Unit: "%", Better: "lower"},
}

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 24

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []workloadDef    `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
	}
	for _, d := range endToEndDefs {
		b := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &b})
	}
	for _, d := range perLayerDefs {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	return m
}

func findDef(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
