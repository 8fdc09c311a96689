package figures_test

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"lwfs/internal/figures"
)

// quick sweep options keep test time reasonable while preserving shape.
func quickFig9() figures.Fig9Opts {
	return figures.Fig9Opts{
		Servers:      []int{2, 8},
		Clients:      []int{1, 8, 32},
		Trials:       2,
		BytesPerProc: 64 << 20,
	}
}

func quickFig10() figures.Fig10Opts {
	return figures.Fig10Opts{
		Servers:    []int{2, 8},
		Clients:    []int{4, 16},
		Trials:     2,
		OpsPerProc: 16,
	}
}

func TestFig9ShapesLWFS(t *testing.T) {
	res, err := figures.Fig9(figures.ImplLWFS, quickFig9())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %d", len(res.Series))
	}
	s2, s8 := res.Series[0], res.Series[1]
	// Throughput grows with client count (until saturation).
	if s8.At(32) <= s8.At(1) {
		t.Errorf("8 servers: no scaling with clients: %v -> %v", s8.At(1), s8.At(32))
	}
	// More servers, more plateau throughput.
	if s8.At(32) < 2*s2.At(32) {
		t.Errorf("server scaling weak: 2s=%v 8s=%v at 32 clients", s2.At(32), s8.At(32))
	}
	// 2-server plateau sits near 2 × disk bandwidth (~190 MB/s).
	var peak float64
	for _, pt := range s2.Points {
		peak = max(peak, pt.Mean)
	}
	if peak < 140 || peak > 210 {
		t.Errorf("2-server plateau = %.1f MB/s, want ~180", peak)
	}
}

func TestFig9SharedWellBelowFPP(t *testing.T) {
	opts := quickFig9()
	opts.Servers = []int{4}
	opts.Clients = []int{16}
	fpp, err := figures.Fig9(figures.ImplPFSFile, opts)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := figures.Fig9(figures.ImplPFSShared, opts)
	if err != nil {
		t.Fatal(err)
	}
	f, s := fpp.Series[0].At(16), sh.Series[0].At(16)
	ratio := s / f
	t.Logf("shared/fpp throughput ratio = %.2f (fpp %.1f, shared %.1f)", ratio, f, s)
	if ratio > 0.75 || ratio < 0.3 {
		t.Errorf("shared/fpp ratio = %.2f, paper shows ~0.5", ratio)
	}
}

func TestFig10Shapes(t *testing.T) {
	lwfs, err := figures.Fig10("lwfs", quickFig10())
	if err != nil {
		t.Fatal(err)
	}
	lustre, err := figures.Fig10("lustre", quickFig10())
	if err != nil {
		t.Fatal(err)
	}
	// Lustre creates are MDS-bound: flat across server counts, under
	// ~1000 ops/s.
	l2, l8 := lustre.Series[0].At(16), lustre.Series[1].At(16)
	if math.Abs(l2-l8)/l2 > 0.1 {
		t.Errorf("lustre creates vary with servers: %v vs %v", l2, l8)
	}
	if l2 > 1000 || l2 < 400 {
		t.Errorf("lustre create rate = %.0f ops/s, want ~770", l2)
	}
	// LWFS creates scale with servers and sit an order of magnitude up.
	w2, w8 := lwfs.Series[0].At(16), lwfs.Series[1].At(16)
	if w8 < 2.5*w2 {
		t.Errorf("lwfs creates don't scale with servers: %v -> %v", w2, w8)
	}
	if w2 < 5*l2 {
		t.Errorf("lwfs (%0.f) not well above lustre (%.0f)", w2, l2)
	}
}

func TestTable2(t *testing.T) {
	res, err := figures.Table2()
	if err != nil {
		t.Fatal(err)
	}
	// Latency within 2x of the configured 2µs (software overhead adds).
	if res.MeasuredLatency < res.ConfiguredLatency || res.MeasuredLatency > 3*res.ConfiguredLatency {
		t.Errorf("latency: configured %v measured %v", res.ConfiguredLatency, res.MeasuredLatency)
	}
	// Link bandwidth within 10% (header overhead, serialization).
	if r := res.MeasuredLinkBW / res.ConfiguredLinkBW; r < 0.45 || r > 1.05 {
		// A Get pays egress+ingress on the reply path: measured ≈ half the
		// raw link rate is the honest end-to-end number.
		t.Errorf("link bw ratio = %.2f", r)
	}
	// Disk bandwidth within 15% of 400 MB/s.
	if r := res.MeasuredDiskBW / res.ConfiguredDiskBW; r < 0.85 || r > 1.02 {
		t.Errorf("disk bw ratio = %.2f (measured %.0f MB/s)", r, res.MeasuredDiskBW/(1<<20))
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "MPI latency") {
		t.Errorf("render: %s", buf.String())
	}
}

func TestPetaflopProjection(t *testing.T) {
	pr, err := figures.PetaflopProjection()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's claim: creating 100k files takes multiple minutes...
	if pr.PFSCreateTime < 100*time.Second {
		t.Errorf("PFS create time = %v, paper says minutes", pr.PFSCreateTime)
	}
	// ...roughly 10% of the total checkpoint time.
	if pr.PFSCreateShare < 0.05 || pr.PFSCreateShare > 0.35 {
		t.Errorf("create share = %.2f, paper says ~10%%", pr.PFSCreateShare)
	}
	// LWFS object creation stays out of the way entirely.
	if pr.LWFSCreateTime > 5*time.Second {
		t.Errorf("LWFS create time = %v", pr.LWFSCreateTime)
	}
	var buf bytes.Buffer
	pr.Render(&buf)
	if !strings.Contains(buf.String(), "Petaflop") {
		t.Errorf("render: %s", buf.String())
	}
}

func TestSecurityMicrobench(t *testing.T) {
	res, err := figures.Security()
	if err != nil {
		t.Fatal(err)
	}
	if res.ColdWrite <= res.WarmWrite {
		t.Errorf("cold write (%v) not slower than warm (%v)", res.ColdWrite, res.WarmWrite)
	}
	if !res.WriteRevoked || !res.ReadSurvives {
		t.Errorf("revocation semantics: writeRevoked=%v readSurvives=%v", res.WriteRevoked, res.ReadSurvives)
	}
	if res.RevokeLatency <= 0 || res.RevokeLatency > 10*time.Millisecond {
		t.Errorf("revoke latency = %v", res.RevokeLatency)
	}
}

func TestRenderSeries(t *testing.T) {
	res, err := figures.Fig9(figures.ImplLWFS, figures.Fig9Opts{
		Servers: []int{2}, Clients: []int{1, 4}, Trials: 1, BytesPerProc: 8 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	figures.RenderSeries(&buf, "Figure 9 (LWFS)", "clients", "MB/s", res.Series)
	out := buf.String()
	if !strings.Contains(out, "2 servers") || !strings.Contains(out, "clients") {
		t.Errorf("render:\n%s", out)
	}
}

func TestTable1Render(t *testing.T) {
	var buf bytes.Buffer
	figures.Table1Render(&buf)
	for _, want := range []string{"Red Storm", "41:1", "BlueGene/L", "64:1"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("table 1 missing %q:\n%s", want, buf.String())
		}
	}
}

// BenchmarkFig9SharedSweep is one Lustre shared-file panel of Figure 9 at
// the benchmark's grid: the sweep whose 64-client points cost the most, so
// its host time is the sweep's makespan on GOMAXPROCS workers rather than
// the sum of its points.
func BenchmarkFig9SharedSweep(b *testing.B) {
	opts := figures.Fig9Opts{
		Servers:      []int{2, 16},
		Clients:      []int{1, 4, 16, 64},
		Trials:       1,
		BytesPerProc: 64 << 20,
	}
	for range b.N {
		if _, err := figures.Fig9(figures.ImplPFSShared, opts); err != nil {
			b.Fatal(err)
		}
	}
}
