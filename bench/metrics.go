package main

// metricDef is one row of the metric table: the single place metric names
// live. BENCHMARK.json repeats the table for the driver, and
// TestMetricTableMatchesBenchmarkJSON keeps the two identical.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them, from the untraced ops only.
var endToEnd = []metricDef{
	{"estimate_s", "s", lower, 0.25},
	{"ads_samples_per_s", "1/s", higher, 0.25},
	{"setup_s", "s", lower, 0.25},
}

// perLayer are the single-layer metrics, prefix = module. A workload on which
// a layer does no work reports 0 for that layer's metrics in the contract
// line and leaves them out of the result file.
var perLayer = []metricDef{
	// set-up spans
	{"gen.generate_s", "s", lower, 0},
	{"graph.lcc_s", "s", lower, 0},
	{"graph.nodes", "count", higher, 0},
	{"graph.edges", "count", higher, 0},
	{"bigio.write_s", "s", lower, 0},
	{"bigio.open_ms", "ms", lower, 0},
	// internal/diameter
	{"diameter.resolve_s", "s", lower, 0},
	{"diameter.vertex_diameter", "count", lower, 0},
	// internal/bfs, internal/pq
	{"bfs.sample_ns", "ns", lower, 0},
	{"bfs.path_interior_mean", "count", lower, 0},
	{"bfs.allocs_per_sample", "count", lower, 0},
	{"bfs.unweighted_sample_ns", "ns", lower, 0},
	{"bfs.weighted_gap", "ratio", lower, 0},
	{"pq.pushpop_ns", "ns", lower, 0},
	// internal/epoch
	{"epoch.aggregate_us", "us", lower, 0},
	{"epoch.touched_per_frame", "count", lower, 0},
	{"epoch.dense_share", "ratio", lower, 0},
	{"epoch.wire_bytes", "bytes", lower, 0},
	{"epoch.wire_encode_us", "us", lower, 0},
	{"epoch.wire_merge_us", "us", lower, 0},
	{"epoch.wire_fold_us", "us", lower, 0},
	// internal/kadabra: the Fig. 2b row of the median op, then the probes
	{"kadabra.diameter_s", "s", lower, 0},
	{"kadabra.calibration_s", "s", lower, 0},
	{"kadabra.sampling_s", "s", lower, 0},
	{"kadabra.check_s", "s", lower, 0},
	{"kadabra.transition_s", "s", lower, 0},
	{"kadabra.tau", "count", lower, 0},
	{"kadabra.epochs", "count", lower, 0},
	{"kadabra.tau_over_omega", "ratio", lower, 0},
	{"kadabra.calibrate_ms", "ms", lower, 0},
	{"kadabra.have_to_stop_us", "us", lower, 0},
	{"kadabra.achieved_eps_us", "us", lower, 0},
	{"kadabra.checkpoint_bytes", "bytes", lower, 0},
	{"kadabra.checkpoint_ms", "ms", lower, 0},
	{"kadabra.restore_ms", "ms", lower, 0},
	{"kadabra.seq_ads_samples_per_s", "1/s", higher, 0},
	{"kadabra.shm_speedup", "ratio", higher, 0},
	// internal/mpi
	{"mpi.tcp_connect_ms", "ms", lower, 0},
	{"mpi.tcp_reduce_rtt_us", "us", lower, 0},
	{"mpi.tcp_barrier_rtt_us", "us", lower, 0},
	{"mpi.local_reduce_rtt_us", "us", lower, 0},
	// internal/core: Table II of the median op
	{"core.epochs", "count", lower, 0},
	{"core.barrier_wait_s", "s", lower, 0},
	{"core.reduce_s", "s", lower, 0},
	{"core.transition_wait_s", "s", lower, 0},
	{"core.check_s", "s", lower, 0},
	{"core.reduce_wire_bytes", "bytes", lower, 0},
	{"core.oversample_ratio", "ratio", lower, 0},
	// betweenness (the public front door)
	{"betweenness.new_estimator_ms", "ms", lower, 0},
	{"betweenness.overhead_ms", "ms", lower, 0},
	{"betweenness.alloc_mib_per_op", "MiB", lower, 0},
	{"betweenness.mallocs_per_op", "count", lower, 0},
	{"betweenness.trace_overhead_share", "ratio", lower, 0},
	// internal/server
	{"server.upload_ms", "ms", lower, 0},
	{"server.create_ms", "ms", lower, 0},
	{"server.run_accept_ms", "ms", lower, 0},
	{"server.poll_ms", "ms", lower, 0},
	{"server.polls_per_session", "count", lower, 0},
	{"server.result_ms", "ms", lower, 0},
	{"server.overhead_ms", "ms", lower, 0},
	{"server.cache_hit_ms", "ms", lower, 0},
	{"server.durability_ms", "ms", lower, 0},
}

// metric looks a definition up by name; an unknown name is a bug.
func metric(name string) metricDef {
	for _, table := range [][]metricDef{endToEnd, perLayer} {
		for _, def := range table {
			if def.Name == name {
				return def
			}
		}
	}
	panic("bench: unknown metric " + name)
}
