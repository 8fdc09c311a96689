package figures

import (
	"strings"
	"testing"
)

// TestRedStormSweepSmall runs E22 at toy scale: both arms must complete
// with healthy shadow load and classify an ack bottleneck, and the staged
// arm must show a durable tail beyond the apparent time.
func TestRedStormSweepSmall(t *testing.T) {
	res, err := RedStormSweep(RedStormOpts{
		Exact:        []int{64},
		TotalRanks:   1000,
		BytesPerProc: 1 << 20,
		Buffers:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(res.Points))
	}
	direct, staged := res.Points[0], res.Points[1]
	if direct.Staged || !staged.Staged {
		t.Fatal("point order: want direct then staged")
	}
	if direct.AckPath != "disk" {
		t.Fatalf("direct ack path = %q, want disk", direct.AckPath)
	}
	if staged.Durable <= staged.Apparent {
		t.Fatalf("staged durable %v not beyond apparent %v", staged.Durable, staged.Apparent)
	}
	if direct.Apparent <= 0 || direct.DiskBusy <= 0 {
		t.Fatal("direct point has empty measurements")
	}
	var b strings.Builder
	res.Render(&b)
	if !strings.Contains(b.String(), "ack bottleneck") {
		t.Fatal("render missing the bottleneck column")
	}
}

// TestCkptIntervalSmall runs E23 at toy scale and sanity-checks the
// interval model: τ respects both the Young/Daly optimum and the drain
// floor, and efficiency stays in (0, 1].
func TestCkptIntervalSmall(t *testing.T) {
	toy := RedStormOpts{
		Exact:        []int{64},
		TotalRanks:   1000,
		BytesPerProc: 1 << 20,
		Buffers:      4,
	}
	res, err := CkptIntervalRun(toy)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arms) != 2 || len(res.Rows) != 6 {
		t.Fatalf("got %d arms, %d rows; want 2, 6 (three MTBFs per arm)", len(res.Arms), len(res.Rows))
	}
	if res.Opts.Seed != 23 {
		t.Errorf("seed %d, want E23's own 23", res.Opts.Seed)
	}
	for _, row := range res.Rows {
		if row.Tau < row.TauOpt || row.Tau < row.TauFloor {
			t.Fatalf("τ %v below its bounds (opt %v, floor %v)", row.Tau, row.TauOpt, row.TauFloor)
		}
		if row.Efficiency <= 0 || row.Efficiency > 1 {
			t.Fatalf("efficiency %.4f out of (0,1]", row.Efficiency)
		}
		if row.DrainBound != (row.TauFloor > row.TauOpt) {
			t.Fatal("DrainBound inconsistent with τ comparison")
		}
	}
	var b strings.Builder
	res.Render(&b)
	if !strings.Contains(b.String(), "governed by") {
		t.Fatal("render missing the governing-constraint column")
	}

	toy.Exact = []int{64, 128}
	if _, err := CkptIntervalRun(toy); err == nil {
		t.Error("two exact-rank counts: no error, want E23 to refuse all but one")
	}
}
