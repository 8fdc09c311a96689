package checkpoint_test

import (
	"math"
	"testing"
	"time"

	"lwfs/internal/checkpoint"
	"lwfs/internal/cluster"
	"lwfs/internal/metrics"
)

// runShadowed schedules one checkpoint with SetupLWFS alone, runs it and
// returns the Result with the registry's final snapshot, where the shadow
// load's gauges live.
func runShadowed(t *testing.T, spec cluster.Spec, cfg checkpoint.Config) (checkpoint.Result, metrics.Snapshot) {
	t.Helper()
	cl := cluster.New(spec)
	defer cl.Close()
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
		t.Fatal("exact ranks aborted on a healthy cluster")
	}
	return *res, cl.Metrics().Snapshot()
}

// checkShadowBytes fails t unless every one of want shadow bytes was both
// acked and written to a disk.
func checkShadowBytes(t *testing.T, snap metrics.Snapshot, want int64) {
	t.Helper()
	for _, g := range []string{"shadow.bytes_acked", "shadow.bytes_durable"} {
		if got := snap.Value(g); got != float64(want) {
			t.Errorf("%s = %.0f, want %d", g, got, want)
		}
	}
}

// TestTotalRanksAloneDeploysTheShadowLoad: the field is the whole mode.
// SetupLWFS with Procs 16 and TotalRanks 64, and no other call, must push
// the 48 shadow ranks' bytes through the storage tier.
func TestTotalRanksAloneDeploysTheShadowLoad(t *testing.T) {
	spec := cluster.DevCluster()
	spec.ComputeNodes = 16
	cfg := checkpoint.Config{Procs: 16, BytesPerProc: 1 << 20, Seed: 1, TotalRanks: 64}
	_, snap := runShadowed(t, spec, cfg)
	checkShadowBytes(t, snap, 48*cfg.BytesPerProc)
}

// TestSampledDirect smoke-tests sampled-rank mode against the storage
// tier: every shadow byte must be injected, acked and landed on a disk,
// alongside a healthy exact-rank checkpoint.
func TestSampledDirect(t *testing.T) {
	spec := cluster.DevCluster()
	spec.ComputeNodes = 32
	cfg := checkpoint.Config{
		Procs:        32,
		BytesPerProc: 1 << 20,
		Seed:         1,
		TotalRanks:   256,
	}
	res, snap := runShadowed(t, spec, cfg)
	checkShadowBytes(t, snap, 224*cfg.BytesPerProc)
	if res.Procs != 32 || res.Reported != 32 || res.Bytes != 32*cfg.BytesPerProc {
		t.Fatalf("Procs %d, %d reported, Bytes %d: want the 32 exact ranks only", res.Procs, res.Reported, res.Bytes)
	}
	// Direct mode: the sink writes (and finally syncs) before acking, so
	// durability precedes the last ack.
	if res.Durable > res.Elapsed {
		t.Fatalf("durable %v after apparent %v in direct mode", res.Durable, res.Elapsed)
	}
}

// TestSampledBurst smoke-tests burst-mode sampling: staging acks return at
// memory speed while drains trail, so the job's durable horizon must lie
// beyond the apparent one; the staging window must backpressure rather
// than absorb the whole job at once.
func TestSampledBurst(t *testing.T) {
	spec := cluster.DevCluster()
	spec.ComputeNodes = 32
	spec.BurstNodes = 2
	cfg := checkpoint.Config{
		Procs:        32,
		BytesPerProc: 1 << 20,
		Seed:         1,
		DrainTimeout: -1, // 256-rank drain tail exceeds the 5s default
		TotalRanks:   256,
	}
	res, snap := runShadowed(t, spec, cfg)
	checkShadowBytes(t, snap, 224*cfg.BytesPerProc)
	if res.Durable <= res.Elapsed {
		t.Fatalf("burst mode: durable %v not after apparent %v", res.Durable, res.Elapsed)
	}
}

// TestSampledCalibration is the model's error-bound check (DESIGN.md
// §4.12): the same 64-rank job run fully exact and run 16-exact/48-shadow
// must report dump times within a modest tolerance, since the shadow
// ranks replace only control-plane traffic, not data-plane queueing.
func TestSampledCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration run in -short mode")
	}
	spec := cluster.DevCluster()
	spec.ComputeNodes = 64
	base := checkpoint.Config{
		Procs:        64,
		BytesPerProc: 1 << 20,
		Seed:         3,
		JitterMax:    time.Millisecond,
	}
	exact, err := checkpoint.RunLWFS(spec, base)
	if err != nil {
		t.Fatal(err)
	}

	sampled := base
	sampled.Procs = 16
	sampled.TotalRanks = 64
	specS := spec
	specS.ComputeNodes = 16
	res, err := checkpoint.RunLWFS(specS, sampled)
	if err != nil {
		t.Fatal(err)
	}

	ratio := float64(res.Elapsed) / float64(exact.Elapsed)
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("sampled dump time %v vs exact %v (ratio %.2f): model out of calibration", res.Elapsed, exact.Elapsed, ratio)
	}
	t.Logf("exact %v, sampled %v (ratio %.2f)", exact.Elapsed, res.Elapsed, ratio)
}

// TestSampledThroughputIsTheJobs: on a sampled run ThroughputMBs divides
// the whole job's bytes, shadow ranks included, by the job-wide Elapsed,
// while Bytes still counts the exact ranks only.
func TestSampledThroughputIsTheJobs(t *testing.T) {
	cfg := checkpoint.Config{Procs: 2, BytesPerProc: 1 << 20, TotalRanks: 1000}
	res, err := checkpoint.RunLWFS(cluster.DevCluster().WithServers(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 2<<20 {
		t.Fatalf("Bytes %d, want the 2 exact ranks' %d", res.Bytes, 2<<20)
	}
	want := 1000 / res.Elapsed.Seconds() // 1000 ranks of 1 MiB each
	if got := res.ThroughputMBs(); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("ThroughputMBs %.3f for 1000 MiB in %v, want %.3f", got, res.Elapsed, want)
	}
}
