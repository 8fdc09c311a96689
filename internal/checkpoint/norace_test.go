//go:build !race

package checkpoint_test

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"lwfs/internal/checkpoint"
	"lwfs/internal/cluster"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
)

// A rank parked in the RPC that carries its state keeps the stack it has.
// Every exact rank of a large checkpoint sits there, so a frame that pushes
// the path past a stack page doubles every rank's stack (ckpt_redstorm's
// peak_rss_mb). The fabric loses the request of every server-directed pull,
// so each rank parks there for good; the stacks are read once with every
// rank parked waiting for its capabilities and once with every rank parked
// in its dump, and what they add per rank is that growth. A rank of either
// tier parks inside a 4 KiB stack: a burst-staging rank in StageWrite, a
// direct-write one in storage.Client.Write. (The race detector's
// instrumentation deepens every frame.)
func TestParkedRankStacksKeepTheirPage(t *testing.T) {
	for _, tier := range rankTiers {
		t.Run(tier.name, func(t *testing.T) {
			per, err := rankStackGrowth(t, tier.buffers, func(cl *cluster.Cluster) {
				// A Get request is the one message of a bare header. The hook
				// runs on the sender's stack, so it must stay shallow itself.
				cl.Net.SetFault(func(m netsim.Message) bool { return m.Size == portals.HeaderSize })
			})
			if err == nil {
				t.Fatal("the run ended, so ranks did not park in their dumps")
			}
			if per >= 4<<10 {
				t.Errorf("each parked rank grew its stack by %d B, past a 4 KiB stack: some frame under the rank's dump RPC grew", per)
			}
			t.Logf("stacks grew %d B per parked rank", per)
		})
	}
}

// A rank that runs its dump to the end keeps a 4 KiB stack on the whole
// way: the capability scatter, the create, the write and its sync. Slow
// disks hold the ranks in their dumps; the stacks are read every 20 ms of
// the first second, and the largest reading is taken.
func TestRankStacksKeepTheirPageOnTheWay(t *testing.T) {
	for _, tier := range rankTiers {
		t.Run(tier.name, func(t *testing.T) {
			per, err := rankStackGrowth(t, tier.buffers, func(cl *cluster.Cluster) {})
			if err != nil {
				t.Fatal(err)
			}
			if per >= 4<<10 {
				t.Errorf("each rank grew its stack by %d B on its way through the dump, past a 4 KiB stack", per)
			}
			t.Logf("stacks grew %d B per rank", per)
		})
	}
}

var rankTiers = []struct {
	name    string
	buffers int
}{{"burst", 2}, {"direct", 0}}

// rankStackGrowth runs a 1 024-rank checkpoint, a rank per compute node, on
// disks slow enough that few dumps end within the first second (a 64 KiB
// write takes 65 ms, and 512 ranks share a disk), and returns how much each
// rank's stack grew from where it waits for its capabilities to the largest
// reading in that second, and the run's error. prepare arms faults.
func rankStackGrowth(t *testing.T, buffers int, prepare func(cl *cluster.Cluster)) (int64, error) {
	const ranks = 1024
	spec := burstSpec(buffers)
	spec.ComputeNodes = ranks // a rank per node, as on the machine
	spec.Disk.BandwidthBps = 1e6
	cl := cluster.New(spec)
	defer cl.Close()
	cl.RegisterUser("app", "s3cret")
	l := cl.DeployLWFS()
	prepare(cl)
	if _, err := checkpoint.SetupLWFS(cl, l, checkpoint.Config{Procs: ranks, BytesPerProc: 64 << 10}); err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	var before, most uint64
	cl.Spawn("stacks", func(p *sim.Proc) {
		p.Sleep(time.Microsecond) // rank 0 is logging in; the rest wait for its capabilities
		runtime.GC()              // frees the stacks of goroutines earlier tests left to die
		runtime.ReadMemStats(&ms)
		before = ms.StackInuse
		for i := 0; i < 50; i++ {
			p.Sleep(20 * time.Millisecond)
			runtime.ReadMemStats(&ms)
			most = max(most, ms.StackInuse)
		}
	})
	err := cl.Run()
	return (int64(most) - int64(before)) / ranks, err
}

// The footprint census of an exact rank: a checkpoint at n and at 2n ranks,
// one rank per compute node, built and run; what the second costs beyond
// the first, per added rank, is what one more rank and its compute node
// cost. A compute node adds no registry record: its link, portals and RPC
// client counters are its own, read through the network's families. (The
// record count is the registry's unexported field n; no product code needs
// it.)
func TestExactRankFootprint(t *testing.T) {
	const n = 256
	type cost struct{ bytes, allocs, records int64 }
	measure := func(ranks, buffers int) cost {
		spec := burstSpec(buffers)
		spec.ComputeNodes = ranks
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		cl := cluster.New(spec)
		defer cl.Close()
		cl.RegisterUser("app", "s3cret")
		l := cl.DeployLWFS()
		if _, err := checkpoint.SetupLWFS(cl, l, checkpoint.Config{Procs: ranks, BytesPerProc: 64 << 10}); err != nil {
			t.Fatal(err)
		}
		if err := cl.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return cost{
			bytes:   int64(after.TotalAlloc - before.TotalAlloc),
			allocs:  int64(after.Mallocs - before.Mallocs),
			records: reflect.ValueOf(cl.Metrics()).Elem().FieldByName("n").Int(),
		}
	}
	for _, tier := range []struct {
		name          string
		buffers       int
		bytes, allocs int64 // per added rank: ≈ 3.85 KB and 57 direct, 4.6 KB and 54 staged
	}{{"direct", 0, 4300, 60}, {"burst", 2, 5000, 58}} {
		t.Run(tier.name, func(t *testing.T) {
			a, b := measure(n, tier.buffers), measure(2*n, tier.buffers)
			bytes, allocs, records := (b.bytes-a.bytes)/n, (b.allocs-a.allocs)/n, b.records-a.records
			t.Logf("per added rank: %d B, %d allocations, %d registry records", bytes, allocs, records/n)
			if bytes > tier.bytes || allocs > tier.allocs {
				t.Errorf("an added rank costs %d B in %d allocations, over %d B in %d", bytes, allocs, tier.bytes, tier.allocs)
			}
			if records != 0 {
				t.Errorf("%d added compute nodes registered %d records, want none", n, records)
			}
		})
	}
}
