package main

import (
	"lwfs/internal/cluster"
	"lwfs/internal/metrics"
	"lwfs/internal/txn"
)

// registryValues maps the deltas of a cluster's public instrument registry
// between two snapshots onto the per-layer metric names (source R). It reads
// names only: a layer that renames an instrument needs a benchmark PR to
// re-point the pattern here first.
func registryValues(final, base metrics.Snapshot) map[string]float64 {
	d := func(pattern string) float64 { return final.Sum(pattern) - base.Sum(pattern) }
	v := map[string]float64{
		"sim.events_dispatched": d("sim.events_dispatched"),

		"netsim.msgs":    d("net.*.msgs_sent"),
		"netsim.bytes":   d("net.*.bytes_sent"),
		"netsim.dropped": d("net.dropped"),

		"portals.rpcs":         d("rpc.*.served"),
		"portals.retries":      d("rpc.client.*.retries"),
		"portals.late_replies": d("rpc.client.*.late_replies"),
		"portals.shed":         d("rpc.*.shed"),

		"authz.verifies":           d("authz.verifies"),
		"storage.cap_cache_misses": d("storage.*.cap_cache.misses"),

		"naming.creates": d("naming.creates"),
		"naming.lookups": d("naming.lookups"),

		"txn.prepares": d("txn.*.prepares"),
		"txn.commits":  d("txn.*.commits"),
		"txn.aborts":   d("txn.*.aborts"),

		"stripe.requests":            d("stripe.*.requests"),
		"stripe.sync_rounds":         d("stripe.*.sync_rounds"),
		"stripe.degraded_reads":      d("stripe.*.degraded_reads"),
		"stripe.reconstructed_bytes": d("stripe.*.reconstructed_bytes"),

		"lwfspfs.meta_degraded_opens": d("pfs.meta.degraded_opens"),
		"lwfspfs.meta_mirrors_stale":  d("pfs.meta.mirrors_stale"),

		"trace.replay_ops":    d("trace.replay.ops"),
		"trace.replay_errors": d("trace.replay.errors"),

		"burst.staged_bytes":  d("burst.*.staged_bytes"),
		"burst.drained_bytes": d("burst.*.drained_bytes"),
		"burst.coalesced":     d("burst.*.drain.coalesced"),

		"qos.breaker_fast_fails": d("qos.breaker.*.fast_fails"),
	}
	if hits, misses := d("storage.*.cap_cache.hits"), v["storage.cap_cache_misses"]; hits+misses > 0 {
		v["authz.cap_cache_hit_ratio"] = hits / (hits + misses)
	}
	if lat := final.MergedHist("burst.*.drain.latency_ms"); lat.N() > 0 {
		v["burst.drain_lat_ms_p99"] = lat.Percentile(99)
	}
	return v
}

// runtimeValues adds the Go runtime's share of a traced measured section.
func runtimeValues(v map[string]float64, host hostCost) {
	v["runtime.gc_cpu_frac"] = host.GCCPUFrac
	v["runtime.num_gc"] = float64(host.NumGC)
	v["runtime.mallocs"] = float64(host.Mallocs)
	v["runtime.heap_inuse_peak_mb"] = host.HeapPeakMB
}

// deviceValues reads what the registry does not carry: the storage devices'
// public counters, disk and NIC busy time as a share of the virtual window,
// and the size of the largest transaction journal.
func deviceValues(v map[string]float64, cl *cluster.Cluster, l *cluster.LWFS, window float64) {
	var writes, bytesW int64
	var diskBusy, nicBusy, journal float64
	for _, s := range l.Servers {
		_, _, _, w, _, bw := s.Device().Counters()
		writes += w
		bytesW += bw
		diskBusy = max(diskBusy, s.Device().DiskBusy().Seconds()/window)
		if st, err := s.Device().Stat(txn.JournalObjectID); err == nil {
			journal = max(journal, float64(st.Size))
		}
	}
	for _, nd := range cl.Net.Nodes() {
		nicBusy = max(nicBusy, nd.IngressBusy().Seconds()/window)
	}
	v["osd.writes"] = float64(writes)
	v["osd.bytes_written"] = float64(bytesW)
	v["osd.disk_busy_max"] = diskBusy
	v["netsim.nic_busy_max"] = nicBusy
	v["txn.journal_bytes_max"] = journal
}
