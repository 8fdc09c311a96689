package metrics

import (
	"strings"
	"testing"
	"time"

	"lwfs/internal/sim"
)

func TestRecorderTicksAndStops(t *testing.T) {
	k := sim.NewKernel()
	reg := NewRegistry(k.Now)
	work := reg.Scope("work")
	rec := NewRecorder(10*time.Millisecond, "work.done", "work.*")
	if rec.every != 10*time.Millisecond {
		t.Fatalf("interval = %v", rec.every)
	}

	stop := rec.Start(k, reg)
	k.Spawn("load", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			work.Counter("done").Inc()
			work.Gauge("depth").Set(int64(i))
			p.Sleep(10 * time.Millisecond)
		}
		stop()
	})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}

	at := rec.at
	// Five 10ms ticks land inside the 50ms workload, plus the final capture
	// stop() takes.
	if len(at) < 5 || len(at) > 7 {
		t.Fatalf("captured %d ticks", len(at))
	}
	for i := 1; i < len(at); i++ {
		if at[i] < at[i-1] {
			t.Fatalf("ticks out of order: %v then %v", at[i-1], at[i])
		}
	}
	// column is one pattern's trajectory, a value per tick.
	column := func(j int) []float64 {
		out := make([]float64, len(rec.rows))
		for i, row := range rec.rows {
			out[i] = row[j]
		}
		return out
	}
	col := column(0) // work.done
	for i := 1; i < len(col); i++ {
		if col[i] < col[i-1] {
			t.Fatalf("counter column not monotonic: %v", col)
		}
	}
	if last := col[len(col)-1]; last != 5 {
		t.Fatalf("final counter column value = %v, want 5", last)
	}
	// A column is what a whole snapshot would have summed to: the pattern
	// takes in the gauge (last set to 4) beside the counter.
	if all := column(1); all[len(all)-1] != reg.Snapshot().Sum("work.*") || all[len(all)-1] != 9 {
		t.Fatalf("pattern column ends at %v, want the snapshot's sum 9", all[len(all)-1])
	}
	// Ticks after stop record nothing.
	n := len(rec.at)
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if len(rec.at) != n {
		t.Fatal("recorder kept capturing after stop")
	}
}

func TestRecorderWriteColumns(t *testing.T) {
	k := sim.NewKernel()
	reg := NewRegistry(k.Now)
	rec := NewRecorder(5*time.Millisecond, "q.depth")
	stop := rec.Start(k, reg)
	k.Spawn("load", func(p *sim.Proc) {
		reg.Scope("q").Gauge("depth").Set(3)
		p.Sleep(12 * time.Millisecond)
		reg.Scope("q").Gauge("depth").Set(7)
		stop()
	})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	rec.WriteColumns(&sb)
	out := sb.String()
	if !strings.Contains(out, "t_ms") || !strings.Contains(out, "q.depth") {
		t.Fatalf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "7") {
		t.Fatalf("final gauge level missing:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines < 4 {
		t.Fatalf("too few rows:\n%s", out)
	}
}

func TestRecorderDefaultInterval(t *testing.T) {
	if got := NewRecorder(0).every; got != 100*time.Millisecond {
		t.Fatalf("default interval = %v", got)
	}
}
