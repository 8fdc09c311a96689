package checkpoint_test

import (
	"strings"
	"testing"
	"time"

	"lwfs/internal/checkpoint"
	"lwfs/internal/cluster"
	"lwfs/internal/metrics"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/testrig"
)

// TestDeterminism1kClients is the regression guard for the kernel's event
// queue and pooling paths: a 1000-client mixed workload (direct writes and
// burst-staged writes, RPC retry timeouts armed and canceled, background
// drains) run twice under identical seeds must be bit-identical — same
// final virtual time, same metrics snapshot down to the last counter. Any
// ordering leak in the 4-ary heap, the same-instant ring, the tombstone
// compaction or the pooled netsim pipeline shows up here as a diff.
//
// The seed honors LWFS_CHAOS_SEED, so the chaos CI matrix exercises the
// guard across several event interleavings.
func TestDeterminism1kClients(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-client run in -short mode")
	}
	seed := testrig.SeedFromEnv(7)

	run := func() (string, sim.Time) {
		spec := cluster.DevCluster().WithServers(8)
		spec.ComputeNodes = 1000
		spec.BurstNodes = 4
		cfg := checkpoint.Config{
			Procs:        1000,
			BytesPerProc: 1 << 20,
			Seed:         seed,
			JitterMax:    2 * time.Millisecond,
			// A generous per-attempt timeout: 1000 ranks funneling into 4
			// buffers queue far past a control RPC's 20ms, and the point
			// here is arming+canceling timeouts, not tripping them.
			Retry: portals.RetryPolicy{
				MaxAttempts: 4,
				Timeout:     5 * time.Second,
				Backoff:     500 * time.Microsecond,
				MaxBackoff:  8 * time.Millisecond,
				Jitter:      200 * time.Microsecond,
			},
		}
		cl := cluster.New(spec)
		cl.RegisterUser("app", "s3cret")
		l := cl.DeployLWFS()
		res, err := checkpoint.SetupLWFS(cl, l, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Run(); err != nil {
			t.Fatal(err)
		}
		if res.Aborted {
			t.Fatal("checkpoint aborted on a healthy cluster")
		}
		var b strings.Builder
		cl.Metrics().Snapshot().Diff(metrics.Snapshot{}).WriteTable(&b)
		return b.String(), cl.K.Now()
	}

	snap1, end1 := run()
	snap2, end2 := run()
	if end1 != end2 {
		t.Errorf("final virtual time differs: %v vs %v", end1, end2)
	}
	if snap1 != snap2 {
		line1 := strings.Split(snap1, "\n")
		line2 := strings.Split(snap2, "\n")
		for i := 0; i < len(line1) && i < len(line2); i++ {
			if line1[i] != line2[i] {
				t.Errorf("metrics snapshots diverge at line %d:\n  run1: %s\n  run2: %s", i, line1[i], line2[i])
				break
			}
		}
		if len(line1) != len(line2) {
			t.Errorf("snapshot line counts differ: %d vs %d", len(line1), len(line2))
		}
		t.Error("metrics snapshots are not bit-identical across identically-seeded runs")
	}
}
