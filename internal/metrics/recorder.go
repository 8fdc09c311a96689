package metrics

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"lwfs/internal/sim"
)

// Recorder samples chosen registry columns on a virtual-time interval — the
// time-series companion to the phase-endpoint MetricsCapture that
// experiments already take. A replay (or any run) started under a Recorder
// produces backlog-over-time trajectories: queue depths, drain backlogs
// and op counters at every tick, not just their final values. A tick keeps
// one number per pattern (Registry.Sum), never a snapshot: a whole-registry
// copy per tick, histograms included, is what once made E24 cost gigabytes.
//
// Start schedules the ticker on the kernel; the returned stop function
// takes one final sample and stops rescheduling. Stop must be called
// when the workload completes (e.g. from a replay's OnDone hook) or the
// pending tick event would keep the kernel's run from ever finishing. One
// trailing tick may still fire after stop; it records nothing.
type Recorder struct {
	every    time.Duration
	patterns []string
	reg      *Registry
	at       []sim.Time
	rows     [][]float64 // rows[i][j] is Sum(patterns[j]) at at[i]
	stopped  bool
}

// NewRecorder samples Sum(pattern) of every pattern each interval (default
// 100ms when zero).
func NewRecorder(every time.Duration, patterns ...string) *Recorder {
	if every <= 0 {
		every = 100 * time.Millisecond
	}
	return &Recorder{every: every, patterns: patterns}
}

// Start arms the ticker on k, sampling reg: the first sample lands one
// interval from now. It returns the stop function; see the type comment for
// why stopping matters.
func (r *Recorder) Start(k *sim.Kernel, reg *Registry) (stop func()) {
	r.reg = reg
	var tick func()
	tick = func() {
		if r.stopped {
			return
		}
		r.capture()
		k.After(r.every, tick)
	}
	k.After(r.every, tick)
	return func() {
		if r.stopped {
			return
		}
		r.stopped = true
		r.capture()
	}
}

func (r *Recorder) capture() {
	row := make([]float64, len(r.patterns))
	for j, pat := range r.patterns {
		row[j] = r.reg.Sum(pat)
	}
	r.at = append(r.at, r.reg.Now())
	r.rows = append(r.rows, row)
}

// WriteColumns renders the series as a table: one row per tick, one column
// per pattern (counters keep rising, gauges show the level at that
// instant).
func (r *Recorder) WriteColumns(w io.Writer) {
	fmt.Fprintf(w, "# metrics timeline: %d ticks every %v\n", len(r.at), r.every)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "t_ms")
	for _, pat := range r.patterns {
		fmt.Fprintf(tw, "\t%s", pat)
	}
	fmt.Fprintln(tw)
	for i, at := range r.at {
		fmt.Fprintf(tw, "%.1f", float64(at)/float64(time.Millisecond))
		for _, v := range r.rows[i] {
			fmt.Fprintf(tw, "\t%s", fmtNum(v))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}
