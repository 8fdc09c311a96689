package figures

import (
	"errors"
	"fmt"
	"strings"
	"testing"

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

func TestSweepOrderCapturesAndProgress(t *testing.T) {
	var progress []string
	cfg := sweepCfg{Trials: 3, Metrics: true, Progress: func(format string, args ...interface{}) {
		progress = append(progress, fmt.Sprintf(format, args...))
	}}
	var order []string
	points, caps, err := sweep(cfg, []probePoint{{name: "a"}, {name: "b"}, {name: "c"}},
		func(pt *probePoint, trial int) ([]MetricsCapture, error) {
			order = append(order, fmt.Sprintf("%s%d", pt.name, trial))
			pt.trials = append(pt.trials, trial)
			labelled := stamped(trial)
			labelled.Label = "own label"
			return []MetricsCapture{stamped(trial), labelled}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, " "); got != "a0 a1 a2 b0 b1 b2 c0 c1 c2" {
		t.Errorf("ran %s: want points in input order, trials within each", got)
	}
	if len(points) != 3 || points[0].name != "a" || points[2].name != "c" || len(points[1].trials) != 3 {
		t.Errorf("returned points %+v", points)
	}
	if len(caps) != 6 {
		t.Fatalf("kept %d captures, want the last trial's two per point", len(caps))
	}
	for i, mc := range caps {
		if mc.Base.At != 2 {
			t.Errorf("capture %d comes from trial %d, want only the last (2)", i, mc.Base.At)
		}
	}
	if caps[2].Label != "name=b" || caps[3].Label != "own label" {
		t.Errorf("labels %q, %q: an unlabelled capture takes the point's, a labelled one keeps its own",
			caps[2].Label, caps[3].Label)
	}
	if want := []string{"name=a: [0 1 2]", "name=b: [0 1 2]", "name=c: [0 1 2]"}; fmt.Sprint(progress) != fmt.Sprint(want) {
		t.Errorf("progress lines %q, want %q", progress, want)
	}

	cfg.Metrics = false
	if _, caps, _ = sweep(cfg, []probePoint{{name: "a"}}, func(*probePoint, int) ([]MetricsCapture, error) {
		return one(stamped(0)), nil
	}); len(caps) != 0 {
		t.Errorf("kept %d captures with Metrics off", len(caps))
	}
}

func TestSweepErrorNamesPointAndTrial(t *testing.T) {
	boom := errors.New("boom")
	points, _, err := sweep(sweepCfg{Trials: 2}, []probePoint{{name: "a"}, {name: "b"}, {name: "c"}},
		func(pt *probePoint, trial int) ([]MetricsCapture, error) {
			pt.trials = append(pt.trials, trial)
			if pt.name == "b" && trial == 1 {
				return nil, boom
			}
			return nil, nil
		})
	if !errors.Is(err, boom) || err.Error() != "name=b trial 1: boom" {
		t.Fatalf("err = %v, want it to wrap boom and name point b, trial 1", err)
	}
	if len(points[2].trials) != 0 {
		t.Errorf("sweep went on to point c after the error: %+v", points[2])
	}
}
