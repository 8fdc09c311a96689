package figures_test

import (
	"bytes"
	"strings"
	"testing"

	"lwfs/internal/figures"
)

// E21 acceptance: metadata flush cost grows with the mirror count, a
// single-record mount is unopenable after the mirror crash while mirrored
// mounts pay only a degraded-open penalty, Rebuild re-homes the lost
// mirrors, and the metadata instruments move.
func TestMetaSweepShape(t *testing.T) {
	res, err := figures.MetaSweep(figures.Env{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Writes) != 3 || len(res.Opens) != 3 || len(res.Rebuilds) != 2 {
		t.Fatalf("points = %d/%d/%d, want 3/3/2", len(res.Writes), len(res.Opens), len(res.Rebuilds))
	}
	if f1, f3 := res.Writes[0].FlushMs.Mean(), res.Writes[2].FlushMs.Mean(); f3 <= f1 {
		t.Errorf("flush cost did not grow with mirrors: 1 mirror %.2f ms vs 3 mirrors %.2f ms", f1, f3)
	}
	if res.Opens[0].Unavailable != res.Trials {
		t.Errorf("single-record opens after the crash: %d unavailable, want %d",
			res.Opens[0].Unavailable, res.Trials)
	}
	for _, pt := range res.Opens[1:] {
		if pt.Unavailable != 0 {
			t.Errorf("copies=%d: %d degraded opens failed", pt.Copies, pt.Unavailable)
		}
		if pt.DegradedMs.Mean() <= pt.HealthyMs.Mean() {
			t.Errorf("copies=%d: degraded open (%.2f ms) not slower than healthy (%.2f ms)",
				pt.Copies, pt.DegradedMs.Mean(), pt.HealthyMs.Mean())
		}
	}
	for _, pt := range res.Rebuilds {
		if pt.Rehomed.Mean() < 1 {
			t.Errorf("files=%d: no metadata mirrors re-homed", pt.Files)
		}
	}
	if len(res.Captures) != 5 {
		t.Fatalf("captures = %d, want 5 (three open points + two rebuild points)", len(res.Captures))
	}
	var b bytes.Buffer
	figures.RenderMetricsCaptures(&b, res.Captures)
	for _, instr := range []string{"degraded_opens", "meta_rehomed"} {
		if !strings.Contains(b.String(), instr) {
			t.Errorf("metrics capture missing %q instruments:\n%s", instr, b.String())
		}
	}
	b.Reset()
	res.Render(&b)
	for _, want := range []string{"metadata-flush latency", "open latency", "re-homing"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("render missing %q:\n%s", want, b.String())
		}
	}
}
