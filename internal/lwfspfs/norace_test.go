//go:build !race

package lwfspfs

import (
	"runtime"
	"testing"

	"lwfs/internal/cluster"
	"lwfs/internal/sim"
	"lwfs/internal/stripe"
)

// A warm metadata flush encodes the layout into the buffer its handle kept
// from the last flush: it allocates what its mirror writes allocate, and no
// encoding. (Not under the race detector, where exited processes and wire
// records are poisoned instead of recycled.)
func TestWarmFlushAllocatesNoEncoding(t *testing.T) {
	spec := cluster.DevCluster()
	spec.ComputeNodes = 4
	cl := cluster.New(spec.WithServers(4))
	cl.RegisterUser("alice", "pa")
	c := cl.NewClient(cl.DeployLWFS(), 0)
	var flush, writes float64
	cl.Spawn("app", func(p *sim.Proc) {
		if err := c.Login(p, "alice", "pa"); err != nil {
			t.Fatalf("login: %v", err)
		}
		fs, err := Format(p, c, "/vol0", Options{StripeUnit: 64 << 10, Scheme: stripe.Replica})
		if err != nil {
			t.Fatalf("format: %v", err)
		}
		f, err := fs.Create(p, "/data.bin")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if len(f.mdRefs) != 2 {
			t.Fatalf("%d metadata mirrors, want 2", len(f.mdRefs))
		}
		flush = mallocsPer(t, func() error {
			f.dirty = true
			return f.flushMeta(p)
		})
		enc := f.l.Encode()
		writes = mallocsPer(t, func() error {
			for _, ref := range f.mdRefs {
				if err := f.writeMirror(p, ref, enc); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	// Half an allocation of slack for the process's own rare allocations: an
	// encoding would cost one per flush.
	if flush > writes+0.5 {
		t.Errorf("a warm flush allocates %.2f objects, its mirror writes %.2f", flush, writes)
	}
	t.Logf("%.2f allocations per warm flush of 2 mirrors", flush)
}

// mallocsPer runs op 20 times to warm up, then 200 more, and reports heap
// allocations per op over the 200.
func mallocsPer(t *testing.T, op func() error) float64 {
	t.Helper()
	const warm, n = 20, 200
	var before, after runtime.MemStats
	for i := 0; i < warm+n; i++ {
		if i == warm {
			runtime.ReadMemStats(&before)
		}
		if err := op(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n
}
