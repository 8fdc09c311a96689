package metrics

import (
	"fmt"
	"testing"
)

// benchRegistry registers what a 40-node cluster's endpoints register: a
// dozen counters per node under net.<node>, four under rpc.client.<node>
// and a queue-depth gauge per node.
func benchRegistry() *Registry {
	r := NewRegistry(nil)
	for i := 0; i < 40; i++ {
		node := fmt.Sprintf("cn%d", i)
		net := r.Scope("net").Scope(node)
		for _, m := range []string{"msgs_sent", "bytes_sent", "msgs_received", "bytes_received",
			"dropped", "egress_busy_ns", "ingress_busy_ns", "queued", "posts", "gets", "puts", "acks"} {
			net.Counter(m)
		}
		rpc := r.Scope("rpc").Scope("client").Scope(node)
		for _, m := range []string{"calls", "retries", "late_replies", "timeouts"} {
			rpc.Counter(m)
		}
		r.Scope("portals").Scope(node).GaugeFunc("queue_depth", func() int64 { return 0 })
	}
	return r
}

// BenchmarkSnapshot is a registry's first snapshot, which builds and sorts
// every name, and a later one, which reuses them.
func BenchmarkSnapshot(b *testing.B) {
	b.Run("first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			r := benchRegistry()
			b.StartTimer()
			r.Snapshot()
		}
	})
	b.Run("warm", func(b *testing.B) {
		r := benchRegistry()
		r.Snapshot()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Snapshot()
		}
	})
}

// BenchmarkSum reads one instrument by name and sums a pattern, once the
// registry's names are built.
func BenchmarkSum(b *testing.B) {
	r := benchRegistry()
	r.Sum("*")
	for _, pattern := range []string{"net.cn7.msgs_sent", "net.*.msgs_sent"} {
		b.Run(pattern, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.Sum(pattern)
			}
		})
	}
}
