package figures

import (
	"strings"
	"testing"
)

// TestBurstSweepHidesDrainLatency: on the buffered points the apparent
// (acked) checkpoint time sits below the durable (drained + committed) time,
// the direct baseline shows no such gap, and the throttled drain widens it.
func TestBurstSweepHidesDrainLatency(t *testing.T) {
	res, err := BurstSweep(Env{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	// 0 buffers is one point; 1, 2 and 4 buffers each sweep two drain speeds.
	if len(res.Points) != 7 {
		t.Fatalf("points = %d, want 7", len(res.Points))
	}
	direct := res.Points[0]
	if direct.Buffers != 0 || direct.Apparent.Mean() != direct.Durable.Mean() {
		t.Fatalf("no-tier baseline (buffers=%d): apparent %f != durable %f",
			direct.Buffers, direct.Apparent.Mean(), direct.Durable.Mean())
	}
	for i := 1; i < len(res.Points); i += 2 {
		disk, throttled := res.Points[i], res.Points[i+1]
		for _, pt := range []BurstPoint{disk, throttled} {
			if pt.Durable.Mean() <= pt.Apparent.Mean() {
				t.Errorf("buffers=%d bw=%v: durable %f not above apparent %f",
					pt.Buffers, pt.DrainBW, pt.Durable.Mean(), pt.Apparent.Mean())
			}
			if pt.Apparent.Mean() >= direct.Apparent.Mean() {
				t.Errorf("buffers=%d: apparent %f not below direct %f — the tier bought nothing",
					pt.Buffers, pt.Apparent.Mean(), direct.Apparent.Mean())
			}
			if pt.DrainP50.N() == 0 || pt.DrainP99.Mean() < pt.DrainP50.Mean() {
				t.Errorf("buffers=%d: drain percentiles p50=%f p99=%f",
					pt.Buffers, pt.DrainP50.Mean(), pt.DrainP99.Mean())
			}
		}
		// Throttling the drain must widen the hidden tail, not shrink it.
		if throttled.DrainBW == 0 || throttled.Durable.Mean() <= disk.Durable.Mean() {
			t.Errorf("buffers=%d: throttled durable %f not above unthrottled %f",
				disk.Buffers, throttled.Durable.Mean(), disk.Durable.Mean())
		}
	}
	var b strings.Builder
	res.Render(&b)
	if !strings.Contains(b.String(), "durable/apparent") {
		t.Fatalf("render output:\n%s", b.String())
	}
	// The -metrics capture path: one snapshot pair per sweep point, and the
	// rendered deltas carry the tier's instruments without any getter code.
	if len(res.Captures) != len(res.Points) {
		t.Fatalf("captures = %d, want one per point (%d)", len(res.Captures), len(res.Points))
	}
	b.Reset()
	RenderMetricsCaptures(&b, res.Captures)
	for _, want := range []string{"# metrics delta", "burst.bb0.drain.backlog", "rpc.", "cap_cache.hit_ratio"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("metrics capture output missing %q:\n%s", want, b.String())
		}
	}
}
