//go:build !race

package checkpoint_test

import (
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
// in its dump, and what they add per rank is that growth. A burst-staging
// rank parks in StageWrite inside a 4 KiB stack, with 192 to 256 B to spare
// (a 256-byte local kept live in dumpViaBurst fails this, and doubles
// ckpt_redstorm's stacks); a direct-write rank parks in storage.Client.Write
// about 4.7 KB deep, so it already holds 8 KiB and the bound is the next
// doubling. (The race detector's instrumentation deepens every frame.)
func TestParkedRankStacksKeepTheirPage(t *testing.T) {
	const ranks = 1024
	for _, tier := range []struct {
		name    string
		buffers int
		page    uint64 // the stack a parked rank fits
	}{{"burst", 2, 4 << 10}, {"direct", 0, 8 << 10}} {
		t.Run(tier.name, func(t *testing.T) {
			spec := burstSpec(tier.buffers)
			spec.ComputeNodes = ranks // a rank per node, as on the machine
			cl := cluster.New(spec)
			defer cl.Close()
			cl.RegisterUser("app", "s3cret")
			l := cl.DeployLWFS()
			// A Get request is the one message of a bare header. The hook runs
			// on the sender's stack, so it must stay shallow itself.
			cl.Net.SetFault(func(m netsim.Message) bool { return m.Size == portals.HeaderSize })
			if _, err := checkpoint.SetupLWFS(cl, l, checkpoint.Config{Procs: ranks, BytesPerProc: 64 << 10}); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			stacks := func(ms *runtime.MemStats) {
				runtime.GC() // frees the stacks of goroutines earlier tests left to die
				runtime.ReadMemStats(ms)
			}
			cl.Spawn("stacks", func(p *sim.Proc) {
				p.Sleep(time.Microsecond) // rank 0 is logging in; the rest wait for its capabilities
				stacks(&before)
				p.Sleep(time.Second) // every rank has parked in its dump
				stacks(&after)
			})
			if err := cl.Run(); err == nil {
				t.Fatal("the run ended, so ranks did not park in their dumps")
			}
			per := (int64(after.StackInuse) - int64(before.StackInuse)) / ranks
			if per >= int64(tier.page) {
				t.Errorf("each parked rank grew its stack by %d B, past a %d B stack: some frame under the rank's dump RPC grew", per, tier.page)
			}
			t.Logf("stacks grew %d B per parked rank", per)
		})
	}
}
