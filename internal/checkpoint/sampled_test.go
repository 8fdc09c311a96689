package checkpoint_test

import (
	"testing"
	"time"

	"lwfs/internal/checkpoint"
	"lwfs/internal/cluster"
)

// runSampled is RunLWFS with the sampled shadow load deployed alongside the
// exact ranks; it returns the exact-rank Result and the shadow load's handle.
func runSampled(spec cluster.Spec, cfg checkpoint.Config) (checkpoint.Result, *checkpoint.SampledLoad, error) {
	cl := cluster.New(spec)
	defer cl.Close()
	cl.RegisterUser("app", "s3cret")
	l := cl.DeployLWFS()
	sl, err := checkpoint.DeploySampled(cl, l, cfg)
	if err != nil {
		return checkpoint.Result{}, nil, err
	}
	res, err := checkpoint.SetupLWFS(cl, l, cfg)
	if err != nil {
		return checkpoint.Result{}, nil, err
	}
	if err := cl.Run(); err != nil {
		return checkpoint.Result{}, nil, err
	}
	return *res, sl, nil
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
	res, sl, err := runSampled(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Fatal("exact ranks aborted on a healthy cluster")
	}
	if sl.ShadowRanks != 224 {
		t.Fatalf("ShadowRanks = %d, want 224", sl.ShadowRanks)
	}
	if sl.Errs() != 0 {
		t.Fatalf("%d shadow RPCs failed", sl.Errs())
	}
	if !sl.Complete() {
		t.Fatalf("shadow load incomplete: acked/durable != %d bytes", sl.Bytes)
	}
	// Direct mode: the sink writes (and finally syncs) before acking, so
	// durability precedes the last ack.
	if sl.DurableEnd() > sl.ApparentEnd() {
		t.Fatalf("durable end %v after apparent end %v in direct mode", sl.DurableEnd(), sl.ApparentEnd())
	}
	if sl.ApparentEnd() == 0 {
		t.Fatal("shadow load never ran")
	}
}

// TestSampledBurst smoke-tests burst-mode sampling: staging acks return at
// memory speed while drains trail, so the shadow durable horizon must lie
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
	res, sl, err := runSampled(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Fatal("exact ranks aborted on a healthy cluster")
	}
	if sl.Errs() != 0 {
		t.Fatalf("%d shadow RPCs failed", sl.Errs())
	}
	if !sl.Complete() {
		t.Fatal("shadow load incomplete")
	}
	if sl.DurableEnd() <= sl.ApparentEnd() {
		t.Fatalf("burst mode: durable end %v not after apparent end %v", sl.DurableEnd(), sl.ApparentEnd())
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
	res, sl, err := runSampled(specS, sampled)
	if err != nil {
		t.Fatal(err)
	}
	if !sl.Complete() || sl.Errs() != 0 {
		t.Fatal("shadow load unhealthy")
	}

	// Apparent dump time of the sampled job: slowest of exact ranks and
	// shadow streams.
	tExact := exact.Elapsed
	tSampled := res.Elapsed
	if end := sl.ApparentEnd(); end > 0 {
		// ApparentEnd is an absolute instant; the dump starts near t=0
		// (jitter-bounded), so it doubles as a duration here.
		if d := time.Duration(end); d > tSampled {
			tSampled = d
		}
	}
	ratio := float64(tSampled) / float64(tExact)
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("sampled dump time %v vs exact %v (ratio %.2f): model out of calibration", tSampled, tExact, ratio)
	}
	t.Logf("exact %v, sampled %v (ratio %.2f)", tExact, tSampled, ratio)
}
