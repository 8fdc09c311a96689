package figures

import (
	"strings"
	"testing"
)

// TestFaultSweepDegradesGracefully: the checkpoint completes at every loss
// rate, and losing messages costs time, never correctness.
func TestFaultSweepDegradesGracefully(t *testing.T) {
	res, err := FaultSweep(Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(res.Points))
	}
	clean := res.Points[0]
	for _, lossy := range res.Points[1:] {
		if lossy.Elapsed.Mean() < clean.Elapsed.Mean() {
			t.Errorf("drop=%.2f: lossy run (%f ms) faster than clean (%f ms)",
				lossy.DropProb, lossy.Elapsed.Mean(), clean.Elapsed.Mean())
		}
		if lossy.Dropped.Mean() == 0 {
			t.Errorf("drop=%.2f: the drop rule never dropped a message", lossy.DropProb)
		}
	}
	var b strings.Builder
	res.Render(&b)
	if !strings.Contains(b.String(), "slowdown") {
		t.Fatalf("render output:\n%s", b.String())
	}
}
