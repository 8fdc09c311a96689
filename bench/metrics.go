package main

// The metric catalogue. BENCHMARK.json lists the same names, units,
// directions and bounds; TestCatalogueMatchesManifest keeps the two equal.
//
// Two clocks: a metric whose name starts with "sim_" or ends in "_sim_us" /
// "_sim_ms_*" is virtual time — what the modelled LWFS would take. It is
// bit-deterministic for a seed, so any drift is a model change a PR must
// declare. Every other metric is host time or memory: what the simulator
// costs to run.

// Source says how a per-layer metric is obtained; see README "Sources".
const (
	srcProbe   = "P" // public function called in a loop on a bare kernel
	srcLadder  = "L" // same request issued at successive public entry points
	srcCounter = "R" // public counter / registry delta over the traced run
	srcSpan    = "S" // span recorded by a benchmark-side wrapper
	srcE2E     = "E" // workload-specific end-to-end value (see README)
)

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Source string  // per-layer only
	Exact  bool    // repeats bit-identically for a seed (virtual time, counts)
}

// endToEnd is reported by every workload with -trace 0.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "alloc_gb", Unit: "GB", Better: "lower", Bound: 0.05},
	{Name: "sim_elapsed_s", Unit: "s", Better: "lower", Bound: 0.20, Exact: true},
	{Name: "sim_mbps", Unit: "MB/s", Better: "higher", Bound: 0.20, Exact: true},
	{Name: "sim_ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.20, Exact: true},
}

// perLayer is reported by every workload with -trace 1. A metric a workload
// cannot observe reads 0 there; README says which.
var perLayer = []metricDef{
	// Workload-specific end-to-end values. They cannot sit in endToEnd
	// because every workload must report every end-to-end metric and none
	// may read 0 (ops_failed_frac is 0 when all is well; the rest exist on
	// some workloads only).
	{Name: "sim_op_ms_p50", Unit: "ms", Better: "lower", Source: srcE2E, Exact: true},
	{Name: "sim_op_ms_p99", Unit: "ms", Better: "lower", Source: srcE2E, Exact: true},
	{Name: "sim_durable_s", Unit: "s", Better: "lower", Source: srcE2E, Exact: true},
	{Name: "paper_shape_err", Unit: "ratio", Better: "lower", Source: srcE2E, Exact: true},
	{Name: "ops_failed_frac", Unit: "ratio", Better: "lower", Source: srcE2E, Exact: true},

	{Name: "sim.events_dispatched", Unit: "count", Better: "lower", Source: srcCounter, Exact: true},
	{Name: "sim.events_per_wall_s", Unit: "1/s", Better: "higher", Source: srcCounter},
	{Name: "sim.dispatch_ns", Unit: "ns", Better: "lower", Source: srcProbe},
	{Name: "sim.switch_ns", Unit: "ns", Better: "lower", Source: srcProbe},

	{Name: "netsim.msgs", Unit: "count", Better: "lower", Source: srcCounter, Exact: true},
	{Name: "netsim.bytes", Unit: "count", Better: "lower", Source: srcCounter, Exact: true},
	{Name: "netsim.dropped", Unit: "count", Better: "lower", Source: srcCounter, Exact: true},
	{Name: "netsim.send_ns", Unit: "ns", Better: "lower", Source: srcProbe},
	{Name: "netsim.nic_busy_max", Unit: "ratio", Better: "lower", Source: srcCounter, Exact: true},

	{Name: "portals.rpcs", Unit: "count", Better: "lower", Source: srcCounter, Exact: true},
	{Name: "portals.rpcs_per_op", Unit: "ratio", Better: "lower", Source: srcCounter, Exact: true},
	{Name: "portals.retries", Unit: "count", Better: "lower", Source: srcCounter, Exact: true},
	{Name: "portals.late_replies", Unit: "count", Better: "lower", Source: srcCounter, Exact: true},
	{Name: "portals.shed", Unit: "count", Better: "lower", Source: srcCounter, Exact: true},
	{Name: "portals.rpc_ns", Unit: "ns", Better: "lower", Source: srcProbe},
	{Name: "portals.rpc_sim_us", Unit: "us", Better: "lower", Source: srcLadder, Exact: true},

	{Name: "authz.verifies", Unit: "count", Better: "lower", Source: srcCounter, Exact: true},
	{Name: "authz.cap_cache_hit_ratio", Unit: "ratio", Better: "higher", Source: srcCounter, Exact: true},
	{Name: "authz.getcaps_sim_us", Unit: "us", Better: "lower", Source: srcLadder, Exact: true},

	{Name: "naming.creates", Unit: "count", Better: "lower", Source: srcCounter, Exact: true},
	{Name: "naming.lookups", Unit: "count", Better: "lower", Source: srcCounter, Exact: true},
	{Name: "naming.create_sim_us", Unit: "us", Better: "lower", Source: srcLadder, Exact: true},
	{Name: "naming.create_ns", Unit: "ns", Better: "lower", Source: srcLadder},

	{Name: "txn.prepares", Unit: "count", Better: "lower", Source: srcCounter, Exact: true},
	{Name: "txn.commits", Unit: "count", Better: "lower", Source: srcCounter, Exact: true},
	{Name: "txn.aborts", Unit: "count", Better: "lower", Source: srcCounter, Exact: true},
	{Name: "txn.journal_bytes_max", Unit: "count", Better: "lower", Source: srcCounter, Exact: true},
	{Name: "txn.journal_append_ns_1k", Unit: "ns", Better: "lower", Source: srcProbe},
	{Name: "txn.journal_append_ns_4k", Unit: "ns", Better: "lower", Source: srcProbe},
	{Name: "txn.journal_append_bytes_4k", Unit: "count", Better: "lower", Source: srcProbe},
	{Name: "txn.commit_sim_us", Unit: "us", Better: "lower", Source: srcLadder, Exact: true},

	{Name: "osd.blob_append_ns_1k", Unit: "ns", Better: "lower", Source: srcProbe},
	{Name: "osd.blob_append_ns_4k", Unit: "ns", Better: "lower", Source: srcProbe},
	{Name: "osd.blob_append_bytes_4k", Unit: "count", Better: "lower", Source: srcProbe},
	{Name: "osd.blob_overwrite_ns_4k", Unit: "ns", Better: "lower", Source: srcProbe},
	{Name: "osd.blob_read_ns_4k", Unit: "ns", Better: "lower", Source: srcProbe},
	{Name: "osd.writes", Unit: "count", Better: "lower", Source: srcCounter, Exact: true},
	{Name: "osd.bytes_written", Unit: "count", Better: "lower", Source: srcCounter, Exact: true},
	{Name: "osd.disk_busy_max", Unit: "ratio", Better: "lower", Source: srcCounter, Exact: true},

	{Name: "core.write_4k_sim_us", Unit: "us", Better: "lower", Source: srcLadder, Exact: true},
	{Name: "core.write_1m_sim_us", Unit: "us", Better: "lower", Source: srcLadder, Exact: true},
	{Name: "core.read_1m_sim_us", Unit: "us", Better: "lower", Source: srcLadder, Exact: true},
	{Name: "core.write_1m_ns", Unit: "ns", Better: "lower", Source: srcLadder},
	{Name: "storage.cap_cache_misses", Unit: "count", Better: "lower", Source: srcCounter, Exact: true},

	{Name: "stripe.requests", Unit: "count", Better: "lower", Source: srcCounter, Exact: true},
	{Name: "stripe.sync_rounds", Unit: "count", Better: "lower", Source: srcCounter, Exact: true},
	{Name: "stripe.degraded_reads", Unit: "count", Better: "lower", Source: srcCounter, Exact: true},
	{Name: "stripe.reconstructed_bytes", Unit: "count", Better: "lower", Source: srcCounter, Exact: true},
	{Name: "stripe.writeat_8m_sim_us", Unit: "us", Better: "lower", Source: srcLadder, Exact: true},
	{Name: "stripe.readat_8m_sim_us", Unit: "us", Better: "lower", Source: srcLadder, Exact: true},
	{Name: "stripe.writeat_8m_ns", Unit: "ns", Better: "lower", Source: srcLadder},

	{Name: "lwfspfs.create_sim_us", Unit: "us", Better: "lower", Source: srcLadder, Exact: true},
	{Name: "lwfspfs.open_sim_us", Unit: "us", Better: "lower", Source: srcLadder, Exact: true},
	{Name: "lwfspfs.writeat_8m_sim_us", Unit: "us", Better: "lower", Source: srcLadder, Exact: true},
	{Name: "lwfspfs.create_ns", Unit: "ns", Better: "lower", Source: srcLadder},
	{Name: "lwfspfs.meta_degraded_opens", Unit: "count", Better: "lower", Source: srcCounter, Exact: true},
	{Name: "lwfspfs.meta_mirrors_stale", Unit: "count", Better: "lower", Source: srcCounter, Exact: true},

	{Name: "stdfs.create_sim_ms_p50", Unit: "ms", Better: "lower", Source: srcSpan, Exact: true},
	{Name: "stdfs.write_sim_ms_p50", Unit: "ms", Better: "lower", Source: srcSpan, Exact: true},
	{Name: "stdfs.write_sim_ms_p99", Unit: "ms", Better: "lower", Source: srcSpan, Exact: true},
	{Name: "stdfs.read_sim_ms_p50", Unit: "ms", Better: "lower", Source: srcSpan, Exact: true},
	{Name: "stdfs.read_sim_ms_p99", Unit: "ms", Better: "lower", Source: srcSpan, Exact: true},
	{Name: "stdfs.sync_sim_ms_p50", Unit: "ms", Better: "lower", Source: srcSpan, Exact: true},
	{Name: "stdfs.close_sim_ms_p50", Unit: "ms", Better: "lower", Source: srcSpan, Exact: true},
	{Name: "stdfs.writeat_8m_sim_us", Unit: "us", Better: "lower", Source: srcLadder, Exact: true},

	{Name: "trace.decode_ns_per_event", Unit: "ns", Better: "lower", Source: srcProbe},
	{Name: "trace.replay_ops", Unit: "count", Better: "higher", Source: srcCounter, Exact: true},
	{Name: "trace.replay_errors", Unit: "count", Better: "lower", Source: srcCounter, Exact: true},

	{Name: "burst.staged_bytes", Unit: "count", Better: "lower", Source: srcCounter, Exact: true},
	{Name: "burst.drained_bytes", Unit: "count", Better: "lower", Source: srcCounter, Exact: true},
	{Name: "burst.coalesced", Unit: "count", Better: "higher", Source: srcCounter, Exact: true},
	{Name: "burst.drain_lat_ms_p99", Unit: "ms", Better: "lower", Source: srcCounter, Exact: true},
	{Name: "burst.buf_nic_busy_max", Unit: "ratio", Better: "lower", Source: srcCounter, Exact: true},

	{Name: "qos.pick_ns", Unit: "ns", Better: "lower", Source: srcProbe},
	{Name: "qos.breaker_fast_fails", Unit: "count", Better: "lower", Source: srcCounter, Exact: true},

	{Name: "checkpoint.lwfs_mbps_16x64", Unit: "MB/s", Better: "higher", Source: srcCounter, Exact: true},
	{Name: "checkpoint.lustre_fpp_mbps_16x64", Unit: "MB/s", Better: "higher", Source: srcCounter, Exact: true},
	{Name: "checkpoint.lustre_shared_mbps_16x64", Unit: "MB/s", Better: "higher", Source: srcCounter, Exact: true},
	{Name: "checkpoint.lwfs_creates_per_s_16x64", Unit: "1/s", Better: "higher", Source: srcCounter, Exact: true},
	{Name: "checkpoint.lustre_creates_per_s_16x64", Unit: "1/s", Better: "higher", Source: srcCounter, Exact: true},

	{Name: "figures.points", Unit: "count", Better: "lower", Source: srcSpan, Exact: true},
	{Name: "figures.point_wall_ms_p50", Unit: "ms", Better: "lower", Source: srcSpan},
	{Name: "figures.point_wall_ms_max", Unit: "ms", Better: "lower", Source: srcSpan},

	{Name: "cluster.build_ns_per_node", Unit: "ns", Better: "lower", Source: srcProbe},

	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower", Source: srcCounter},
	{Name: "runtime.num_gc", Unit: "count", Better: "lower", Source: srcCounter},
	{Name: "runtime.mallocs", Unit: "count", Better: "lower", Source: srcCounter},
	{Name: "runtime.heap_inuse_peak_mb", Unit: "MB", Better: "lower", Source: srcCounter},

	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower", Source: srcSpan},
}

// defOf finds a metric in either list.
func defOf(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
