// Benchmarks regenerating the paper's tables and figures, one per
// artifact. All performance numbers are *simulated* virtual-time metrics
// reported via b.ReportMetric (sim-MB/s, sim-ops/s, sim-µs); wall-clock
// ns/op only measures how fast the simulator itself runs.
//
// Full sweeps (every curve of every panel) live in cmd/lwfsbench; these
// benches pin the representative configurations the paper's text quotes,
// so `go test -bench=.` doubles as a regression harness for the
// reproduction. EXPERIMENTS.md records paper-vs-measured.
package lwfs_test

import (
	"fmt"
	"testing"

	"lwfs/internal/checkpoint"
	"lwfs/internal/cluster"
	"lwfs/internal/figures"
)

// benchSpec is the dev cluster resized to the given server count.
func benchSpec(servers int) cluster.Spec {
	return cluster.DevCluster().WithServers(servers)
}

// benchCfg keeps per-iteration simulation cost moderate (64 MB/process
// instead of 512 MB changes nothing about who wins — the system is in
// steady state well before either).
func benchCfg(procs int, seed int64) checkpoint.Config {
	return checkpoint.Config{Procs: procs, BytesPerProc: 64 << 20, Seed: seed}
}

func reportCheckpoint(b *testing.B, run func(cluster.Spec, checkpoint.Config) (checkpoint.Result, error), servers, procs int) {
	b.Helper()
	var tput float64
	for i := 0; i < b.N; i++ {
		res, err := run(benchSpec(servers), benchCfg(procs, int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		tput = res.ThroughputMBs()
	}
	b.ReportMetric(tput, "sim-MB/s")
}

// Figure 9 (top panel): Lustre checkpoint, one file per process.
func BenchmarkFig9LustreFilePerProcess(b *testing.B) {
	for _, servers := range []int{2, 8, 16} {
		b.Run(fmt.Sprintf("servers=%d/clients=32", servers), func(b *testing.B) {
			reportCheckpoint(b, checkpoint.RunPFSFilePerProcess, servers, 32)
		})
	}
}

// Figure 9 (middle panel): Lustre checkpoint, one shared file.
func BenchmarkFig9LustreSharedFile(b *testing.B) {
	for _, servers := range []int{2, 8, 16} {
		b.Run(fmt.Sprintf("servers=%d/clients=32", servers), func(b *testing.B) {
			reportCheckpoint(b, checkpoint.RunPFSShared, servers, 32)
		})
	}
}

// Figure 9 (bottom panel): LWFS checkpoint, one object per process.
func BenchmarkFig9LWFSObjectPerProcess(b *testing.B) {
	for _, servers := range []int{2, 8, 16} {
		b.Run(fmt.Sprintf("servers=%d/clients=32", servers), func(b *testing.B) {
			reportCheckpoint(b, checkpoint.RunLWFS, servers, 32)
		})
	}
}

// Figure 10b: Lustre file creation through the centralized MDS — flat in
// the server count.
func BenchmarkFig10LustreCreate(b *testing.B) {
	for _, servers := range []int{2, 16} {
		b.Run(fmt.Sprintf("servers=%d/clients=32", servers), func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				res, err := checkpoint.RunCreateOnlyPFS(benchSpec(servers), 32, 16, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				rate = res.OpsPerSec
			}
			b.ReportMetric(rate, "sim-ops/s")
		})
	}
}

// Figure 10c: LWFS object creation, parallel across storage servers.
func BenchmarkFig10LWFSCreate(b *testing.B) {
	for _, servers := range []int{2, 16} {
		b.Run(fmt.Sprintf("servers=%d/clients=32", servers), func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				res, err := checkpoint.RunCreateOnlyLWFS(benchSpec(servers), 32, 16, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				rate = res.OpsPerSec
			}
			b.ReportMetric(rate, "sim-ops/s")
		})
	}
}

// Figure 10a is the 16-server juxtaposition of the two benches above; the
// quoted comparison (orders of magnitude apart) is asserted here.
func BenchmarkFig10aComparison(b *testing.B) {
	var lwfs, lustre float64
	for i := 0; i < b.N; i++ {
		rl, err := checkpoint.RunCreateOnlyLWFS(benchSpec(16), 32, 16, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		rp, err := checkpoint.RunCreateOnlyPFS(benchSpec(16), 32, 16, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		lwfs, lustre = rl.OpsPerSec, rp.OpsPerSec
	}
	b.ReportMetric(lwfs/lustre, "sim-speedup")
}

// Table 2: Red Storm network and I/O parameters, measured in simulation.
func BenchmarkTable2(b *testing.B) {
	var res figures.Table2Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = figures.Table2()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MeasuredLatency.Seconds()*1e6, "sim-latency-µs")
	b.ReportMetric(res.MeasuredLinkBW/1e9, "sim-link-GB/s")
	b.ReportMetric(res.MeasuredDiskBW/(1<<20), "sim-raid-MB/s")
}

// Capability verification, cold (authorization round trip) vs warm
// (storage-server cache hit) — the §3.1.2 amortization argument.
func BenchmarkCapabilityVerify(b *testing.B) {
	var res figures.SecurityResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = figures.Security()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.ColdWrite.Seconds()*1e6, "sim-cold-µs")
	b.ReportMetric(res.WarmWrite.Seconds()*1e6, "sim-warm-µs")
	b.ReportMetric(res.RevokeLatency.Seconds()*1e6, "sim-revoke-µs")
}

// §4 petaflop projection: creates through one MDS versus 2000 servers.
func BenchmarkPetaflopProjection(b *testing.B) {
	var pr figures.Projection
	var err error
	for i := 0; i < b.N; i++ {
		pr, err = figures.PetaflopProjection()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pr.PFSCreateTime.Seconds(), "sim-pfs-create-s")
	b.ReportMetric(pr.PFSCreateShare*100, "sim-create-share-%")
}

// Ablation: storage-server capability caching on/off. With the cache off,
// every request pays an authorization-service round trip; the create-rate
// gap is the cost §3.1.2's caching buys back.
func BenchmarkAblationCapCache(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "on"
		if disable {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			spec := benchSpec(8)
			spec.Storage.DisableCapCache = disable
			var rate float64
			for i := 0; i < b.N; i++ {
				res, err := checkpoint.RunCreateOnlyLWFS(spec, 32, 16, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				rate = res.OpsPerSec
			}
			b.ReportMetric(rate, "sim-ops/s")
		})
	}
}

// Ablation: server-directed transfer chunk size. Too small wastes requests;
// too large defeats the pull/disk pipeline and bloats pinned buffers.
func BenchmarkAblationChunkSize(b *testing.B) {
	for _, chunk := range []int64{256 << 10, 1 << 20, 4 << 20} {
		b.Run(fmt.Sprintf("chunk=%dKiB", chunk>>10), func(b *testing.B) {
			spec := benchSpec(8)
			spec.Storage.ChunkSize = chunk
			if spec.Storage.PinnedBuffer < 2*chunk {
				spec.Storage.PinnedBuffer = 2 * chunk
			}
			var tput float64
			for i := 0; i < b.N; i++ {
				res, err := checkpoint.RunLWFS(spec, benchCfg(16, int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				tput = res.ThroughputMBs()
			}
			b.ReportMetric(tput, "sim-MB/s")
		})
	}
}

// Extension bench (§6 remote processing): scanning a sharded dataset with
// server-side filters versus reading everything to the client.
func BenchmarkActiveStorageScan(b *testing.B) {
	for _, mode := range []string{"filter", "read-all"} {
		b.Run(mode, func(b *testing.B) {
			var speed float64
			for i := 0; i < b.N; i++ {
				d, err := figures.ActiveStorageScan(mode == "filter")
				if err != nil {
					b.Fatal(err)
				}
				speed = d.Seconds()
			}
			b.ReportMetric(speed, "sim-scan-s")
		})
	}
}

// Extension bench (§6 MPI-IO on the core): two-phase collective writes of
// interleaved records versus independent small writes.
func BenchmarkCollectiveIO(b *testing.B) {
	for _, mode := range []string{"collective", "independent"} {
		b.Run(mode, func(b *testing.B) {
			var d float64
			for i := 0; i < b.N; i++ {
				dur, err := figures.CollectiveVsIndependent(mode == "collective")
				if err != nil {
					b.Fatal(err)
				}
				d = dur.Seconds()
			}
			b.ReportMetric(d, "sim-write-s")
		})
	}
}

// Ablation: storage-server service threads — how much concurrency the
// server-directed design needs to keep pulls overlapped with disk writes.
func BenchmarkAblationServerThreads(b *testing.B) {
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			spec := benchSpec(8)
			spec.Storage.Threads = threads
			var tput float64
			for i := 0; i < b.N; i++ {
				res, err := checkpoint.RunLWFS(spec, benchCfg(16, int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				tput = res.ThroughputMBs()
			}
			b.ReportMetric(tput, "sim-MB/s")
		})
	}
}
