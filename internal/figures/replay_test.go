package figures

import (
	"strings"
	"testing"
)

// The acceptance shape for E24: replaying a recorded workload at 16-way
// concurrency must deliver more aggregate bandwidth than at 1-way — the
// whole point of driving the facade from many clients. Also pins the
// metrics plumbing: captures and the highest-concurrency timeline arrive
// and render.
func TestReplaySweepScales(t *testing.T) {
	res, err := replaySweep(Env{Clients: []int{1, 16}, Metrics: true}, []string{"jacobi"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	one, sixteen := res.Points[0], res.Points[1]
	if one.Workers != 1 || sixteen.Workers != 16 {
		t.Fatalf("workers = %d, %d", one.Workers, sixteen.Workers)
	}
	for _, pt := range res.Points {
		if pt.Errors != 0 {
			t.Fatalf("x%d replay had %d errors", pt.Workers, pt.Errors)
		}
		if pt.Ops == 0 || pt.MB == 0 || pt.P99Ms <= 0 {
			t.Fatalf("x%d point empty: %+v", pt.Workers, pt)
		}
	}
	// Identical total work, so scaling shows as elapsed-time shrink and
	// bandwidth growth. Require a real win, not simulation noise.
	if one.Ops != sixteen.Ops {
		t.Fatalf("unequal work: %d vs %d ops", one.Ops, sixteen.Ops)
	}
	if sixteen.MBps < 2*one.MBps {
		t.Fatalf("16-way bandwidth %.1f MB/s not ≥2x 1-way %.1f MB/s", sixteen.MBps, one.MBps)
	}

	if len(res.Captures) != 2 {
		t.Fatalf("captures = %d", len(res.Captures))
	}
	if len(res.Timelines) != 1 || res.Timelines[0].Workers != 16 {
		t.Fatalf("timelines = %+v", res.Timelines)
	}
	var timeline strings.Builder
	res.Timelines[0].Rec.WriteColumns(&timeline)
	if ticks := strings.Count(timeline.String(), "\n") - 2; ticks < 2 { // less the title and the column names
		t.Fatalf("timeline captured %d ticks", ticks)
	}

	var sb strings.Builder
	res.Render(&sb)
	out := sb.String()
	for _, want := range []string{"## jacobi", "p99 op", "timeline", "trace.replay.ops"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
