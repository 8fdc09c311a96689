package checkpoint_test

import (
	"testing"

	"lwfs/internal/checkpoint"
	"lwfs/internal/cluster"
)

const mb = 1 << 20

// testSpec shrinks the dev cluster for fast tests.
func testSpec(servers int) cluster.Spec {
	spec := cluster.DevCluster()
	spec.ComputeNodes = 8
	return spec.WithServers(servers)
}

func TestLWFSCheckpointCompletes(t *testing.T) {
	res, err := checkpoint.RunLWFS(testSpec(4), checkpoint.Config{Procs: 8, BytesPerProc: 16 * mb, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Procs != 8 || res.Reported != 8 {
		t.Fatalf("result: %+v", res)
	}
	if res.ThroughputMBs() < 100 {
		t.Fatalf("LWFS throughput = %.1f MB/s, implausibly low", res.ThroughputMBs())
	}
	// Object creates never touch a central metadata path: sub-10ms.
	if res.MaxTimes.Create.Milliseconds() > 10 {
		t.Fatalf("LWFS create phase = %v", res.MaxTimes.Create)
	}
}

func TestPFSFilePerProcessCompletes(t *testing.T) {
	res, err := checkpoint.RunPFSFilePerProcess(testSpec(4), checkpoint.Config{Procs: 8, BytesPerProc: 16 * mb, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputMBs() < 100 {
		t.Fatalf("FPP throughput = %.1f MB/s", res.ThroughputMBs())
	}
	// Creates serialize at the MDS: the slowest process waited for ~all 8.
	if res.MaxTimes.Create.Milliseconds() < 8 {
		t.Fatalf("FPP create phase = %v, MDS serialization missing", res.MaxTimes.Create)
	}
}

func TestPFSSharedCompletes(t *testing.T) {
	res, err := checkpoint.RunPFSShared(testSpec(4), checkpoint.Config{Procs: 8, BytesPerProc: 16 * mb, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputMBs() < 50 {
		t.Fatalf("shared throughput = %.1f MB/s", res.ThroughputMBs())
	}
}

// The Figure 9 ordering in miniature: LWFS ≳ file-per-process > shared.
func TestFigure9OrderingMiniature(t *testing.T) {
	cfg := checkpoint.Config{Procs: 8, BytesPerProc: 32 * mb, Seed: 2}
	spec := testSpec(4)
	lwfs, err := checkpoint.RunLWFS(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fpp, err := checkpoint.RunPFSFilePerProcess(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharedR, err := checkpoint.RunPFSShared(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tL, tF, tS := lwfs.ThroughputMBs(), fpp.ThroughputMBs(), sharedR.ThroughputMBs()
	t.Logf("throughput MB/s: lwfs=%.1f fpp=%.1f shared=%.1f", tL, tF, tS)
	if tS >= tF*0.8 {
		t.Errorf("shared (%.1f) not well below file-per-process (%.1f)", tS, tF)
	}
	if tL < tF*0.9 {
		t.Errorf("LWFS (%.1f) below file-per-process (%.1f)", tL, tF)
	}
}

// The Figure 10 ordering in miniature: LWFS creates scale with servers,
// PFS creates don't.
func TestFigure10OrderingMiniature(t *testing.T) {
	const procs, ops = 8, 10
	l2, err := checkpoint.RunCreateOnlyLWFS(testSpec(2), procs, ops, 1)
	if err != nil {
		t.Fatal(err)
	}
	l8, err := checkpoint.RunCreateOnlyLWFS(testSpec(8), procs, ops, 1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := checkpoint.RunCreateOnlyPFS(testSpec(2), procs, ops, 1)
	if err != nil {
		t.Fatal(err)
	}
	p8, err := checkpoint.RunCreateOnlyPFS(testSpec(8), procs, ops, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("creates/s: lwfs2=%.0f lwfs8=%.0f pfs2=%.0f pfs8=%.0f",
		l2.OpsPerSec, l8.OpsPerSec, p2.OpsPerSec, p8.OpsPerSec)
	// LWFS object creation outruns MDS-bound file creation by a lot.
	if l2.OpsPerSec < 4*p2.OpsPerSec {
		t.Errorf("LWFS creates (%.0f/s) not well above PFS (%.0f/s)", l2.OpsPerSec, p2.OpsPerSec)
	}
	// LWFS scales with server count; PFS stays flat.
	if l8.OpsPerSec < 2*l2.OpsPerSec {
		t.Errorf("LWFS creates don't scale: %0.f -> %.0f", l2.OpsPerSec, l8.OpsPerSec)
	}
	if p8.OpsPerSec > 1.5*p2.OpsPerSec {
		t.Errorf("PFS creates scale with servers (%.0f -> %.0f); MDS should bottleneck", p2.OpsPerSec, p8.OpsPerSec)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	cfg := checkpoint.Config{Procs: 4, BytesPerProc: 8 * mb, Seed: 42}
	a, err := checkpoint.RunLWFS(testSpec(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := checkpoint.RunLWFS(testSpec(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed {
		t.Fatalf("same seed, different results: %v vs %v", a.Elapsed, b.Elapsed)
	}
	c, err := checkpoint.RunLWFS(testSpec(4), checkpoint.Config{Procs: 4, BytesPerProc: 8 * mb, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if c.Elapsed == a.Elapsed {
		t.Fatal("different seeds produced identical timings; trials have no variance")
	}
}

func TestSingleProcessCheckpoint(t *testing.T) {
	for _, impl := range []struct {
		name string
		run  func(cluster.Spec, checkpoint.Config) (checkpoint.Result, error)
	}{
		{"lwfs", checkpoint.RunLWFS},
		{"fpp", checkpoint.RunPFSFilePerProcess},
		{"shared", checkpoint.RunPFSShared},
	} {
		res, err := impl.run(testSpec(2), checkpoint.Config{Procs: 1, BytesPerProc: 4 * mb, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", impl.name, err)
		}
		if res.Elapsed <= 0 {
			t.Fatalf("%s: elapsed = %v", impl.name, res.Elapsed)
		}
	}
}
