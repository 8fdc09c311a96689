package figures_test

import (
	"bytes"
	"strings"
	"testing"

	"lwfs/internal/figures"
)

// E17 acceptance: the parallel engine beats the serial path for >= 2
// servers on both reads and writes, and the per-call RPC count drops from
// one-per-unit to one-per-object.
func TestStripeSweepParallelBeatsSerial(t *testing.T) {
	res, err := figures.StripeSweep(figures.Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("got %d points, want 5", len(res.Points))
	}
	units := float64((res.FileMB << 20) / res.Points[0].Unit)
	for _, pt := range res.Points {
		if pt.SerialRPCs != units {
			t.Errorf("servers=%d: serial path used %.0f RPCs per write, want %.0f (one per unit)",
				pt.Servers, pt.SerialRPCs, units)
		}
		if pt.ParallelRPCs != float64(pt.Servers) {
			t.Errorf("servers=%d: engine used %.0f RPCs per write, want %d (one per object)",
				pt.Servers, pt.ParallelRPCs, pt.Servers)
		}
		if pt.Servers < 2 {
			continue
		}
		if pt.ParallelWrite.Mean() <= pt.SerialWrite.Mean() {
			t.Errorf("servers=%d: parallel write %.0f MB/s not above serial %.0f MB/s",
				pt.Servers, pt.ParallelWrite.Mean(), pt.SerialWrite.Mean())
		}
		if pt.ParallelRead.Mean() <= pt.SerialRead.Mean() {
			t.Errorf("servers=%d: parallel read %.0f MB/s not above serial %.0f MB/s",
				pt.Servers, pt.ParallelRead.Mean(), pt.SerialRead.Mean())
		}
	}
	// Bandwidth scales with the server count until the client NIC binds:
	// 4 servers must beat 2 on the parallel path.
	if res.Points[2].ParallelWrite.Mean() <= res.Points[1].ParallelWrite.Mean() {
		t.Errorf("parallel write did not scale: 2 servers %.0f MB/s, 4 servers %.0f MB/s",
			res.Points[1].ParallelWrite.Mean(), res.Points[2].ParallelWrite.Mean())
	}

	var buf bytes.Buffer
	res.Render(&buf)
	out := buf.String()
	for _, want := range []string{"speedup", "RPCs/write", "1024KiB"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
