package figures

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lwfs/internal/cluster"
	"lwfs/internal/metrics"
	"lwfs/internal/sim"
)

// probePoint records which trials sweep ran it through.
type probePoint struct {
	name   string
	trials []int
}

func (pt *probePoint) label() string   { return "name=" + pt.name }
func (pt *probePoint) summary() string { return fmt.Sprint(pt.trials) }

// stamped is a capture recognisable by the virtual time of its base.
func stamped(trial int) MetricsCapture {
	return MetricsCapture{Base: metrics.Snapshot{At: sim.Time(trial)}}
}

// goid is the calling goroutine's id, read off its stack header.
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// procs sets GOMAXPROCS — sweep's worker count — for one test.
func procs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// The sweep contract: points overlap, up to GOMAXPROCS of them, yet results,
// captures and progress lines come back in input order, the trials of a point
// run in order, and Progress is only ever called on the caller's goroutine.
func TestSweepOrderCapturesAndProgress(t *testing.T) {
	procs(t, 4)
	caller := goid()
	var progress []string
	cfg := sweepCfg{Trials: 3, Metrics: true, Progress: func(format string, args ...interface{}) {
		if id := goid(); id != caller {
			t.Errorf("Progress called on goroutine %s, want the caller's %s", id, caller)
		}
		progress = append(progress, fmt.Sprintf(format, args...))
	}}
	names := []string{"a", "b", "c", "d", "e", "f"}
	in := make([]probePoint, len(names))
	for i, name := range names {
		in[i].name = name
	}
	var running, peak atomic.Int32
	points, caps, err := sweep(cfg, in, func(pt *probePoint, trial int, keep bool) ([]MetricsCapture, error) {
		if keep != (trial == 2) {
			t.Errorf("trial %d told keep=%v: sweep keeps only the last trial's captures", trial, keep)
		}
		n := running.Add(1)
		for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
		}
		// Earlier points take longer, so points finish out of input order.
		time.Sleep(time.Duration('g'-pt.name[0]) * time.Millisecond)
		running.Add(-1)
		pt.trials = append(pt.trials, trial)
		labelled := stamped(trial)
		labelled.Label = "own label"
		return []MetricsCapture{stamped(trial), labelled}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() < 2 || peak.Load() > 4 {
		t.Errorf("at most %d points ran at once, want 2 to GOMAXPROCS = 4", peak.Load())
	}
	var wantProgress []string
	for i, name := range names {
		if points[i].name != name || fmt.Sprint(points[i].trials) != "[0 1 2]" {
			t.Errorf("point %d is %+v, want %s with trials 0 1 2 in order", i, points[i], name)
		}
		wantProgress = append(wantProgress, "name="+name+": [0 1 2]")
	}
	if len(caps) != 2*len(names) {
		t.Fatalf("kept %d captures, want the last trial's two per point", len(caps))
	}
	for i, mc := range caps {
		if mc.Base.At != 2 {
			t.Errorf("capture %d comes from trial %d, want only the last (2)", i, mc.Base.At)
		}
		want := "own label"
		if i%2 == 0 {
			want = "name=" + names[i/2] // an unlabelled capture takes its point's label
		}
		if mc.Label != want {
			t.Errorf("capture %d labelled %q, want %q: captures follow input order", i, mc.Label, want)
		}
	}
	if fmt.Sprint(progress) != fmt.Sprint(wantProgress) {
		t.Errorf("progress lines %q, want %q", progress, wantProgress)
	}

	cfg.Metrics = false
	if _, caps, _ = sweep(cfg, []probePoint{{name: "a"}}, func(_ *probePoint, _ int, keep bool) ([]MetricsCapture, error) {
		if keep {
			t.Error("a trial was told keep=true with Metrics off")
		}
		return one(stamped(0)), nil
	}); len(caps) != 0 {
		t.Errorf("kept %d captures with Metrics off", len(caps))
	}
}

// With two failing points the lower index is reported even when the higher
// one fails first, and points nobody had claimed by then never start.
func TestSweepErrorNamesPointAndTrial(t *testing.T) {
	procs(t, 2)
	boom := errors.New("boom")
	eFailed := make(chan struct{})
	var progress []string
	points, _, err := sweep(sweepCfg{Trials: 2, Progress: func(format string, args ...interface{}) {
		progress = append(progress, fmt.Sprintf(format, args...))
	}}, []probePoint{{name: "a"}, {name: "b"}, {name: "c"}, {name: "d"}, {name: "e"}, {name: "f"}},
		func(pt *probePoint, trial int, _ bool) ([]MetricsCapture, error) {
			pt.trials = append(pt.trials, trial)
			switch {
			case pt.name == "b" && trial == 1:
				<-eFailed
				return nil, boom
			case pt.name == "e":
				close(eFailed)
				return nil, errors.New("later point, earlier failure")
			}
			return nil, nil
		})
	if !errors.Is(err, boom) || err.Error() != "name=b trial 1: boom" {
		t.Fatalf("err = %v, want it to wrap boom and name point b, trial 1", err)
	}
	if len(points[5].trials) != 0 {
		t.Errorf("sweep went on to point f after the errors: %+v", points[5])
	}
	if fmt.Sprint(progress) != "[name=a: [0 1]]" {
		t.Errorf("progress lines %q, want only point a's: nothing is reported past a failed point", progress)
	}
}

// A driver's report does not depend on how many points ran side by side.
func TestSweepRenderIndependentOfGOMAXPROCS(t *testing.T) {
	render := func(n int) string {
		prev := runtime.GOMAXPROCS(n)
		defer runtime.GOMAXPROCS(prev)
		var sb strings.Builder
		burst, err := BurstSweep(Env{Trials: 2, Metrics: true})
		if err != nil {
			t.Fatal(err)
		}
		burst.Render(&sb)
		fig10, err := Fig10("lwfs", Fig10Opts{Servers: []int{2, 8}, Clients: []int{1, 4, 16}, Trials: 2})
		if err != nil {
			t.Fatal(err)
		}
		RenderSeries(&sb, "Figure 10c", "clients", "ops/s", fig10.Series)
		return sb.String()
	}
	if one, four := render(1), render(4); one != four {
		t.Errorf("report under GOMAXPROCS 1:\n%s\nunder GOMAXPROCS 4:\n%s", one, four)
	}
}

// seriesSweep hands sweep its grid heaviest first — clients descending, then
// servers descending — and still assembles each series in the order of the
// input lists, however those are ordered.
func TestSeriesSweepHeaviestFirst(t *testing.T) {
	procs(t, 1) // one worker: measure runs in exactly the order sweep claims
	var calls []string
	series, err := seriesSweep("probe", "u", []int{16, 2}, []int{4, 1, 64}, 1, nil,
		func(spec cluster.Spec, clients, trial int) (float64, error) {
			servers := spec.StorageNodes * spec.ServersPerNode
			calls = append(calls, fmt.Sprintf("%dx%d", servers, clients))
			return float64(1000*servers + clients), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if want := "[16x64 2x64 16x4 2x4 16x1 2x1]"; fmt.Sprint(calls) != want {
		t.Errorf("measured %v, want %s", calls, want)
	}
	for i, servers := range []int{16, 2} {
		s := series[i]
		if want := fmt.Sprintf("%d servers", servers); s.Name != want {
			t.Errorf("series %d is %q, want %q", i, s.Name, want)
		}
		for j, clients := range []int{4, 1, 64} {
			if pt := s.Points[j]; pt.X != float64(clients) || pt.Mean != float64(1000*servers+clients) {
				t.Errorf("%s point %d is (%g, %g), want (%d, %d)", s.Name, j, pt.X, pt.Mean, clients, 1000*servers+clients)
			}
		}
	}
}
