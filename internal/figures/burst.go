package figures

import (
	"errors"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"lwfs/internal/checkpoint"
	"lwfs/internal/cluster"
	"lwfs/internal/stats"
)

// The burst-buffer sweep (experiment E15): run the §4 checkpoint through the
// write-behind staging tier and separate what the application *sees* (the
// ack — apparent checkpoint time, when computation resumes) from what the
// system *guarantees* (the drain-inclusive commit — durable time). The gap
// between the two columns is the latency the tier hides; sweeping buffer
// counts and drain bandwidths shows how it scales and when backpressure
// erodes it.

// The sweep's fixed checkpoint.
const (
	burstProcs        = 8
	burstServers      = 4
	burstBytesPerProc = 1 << 20
)

// BurstPoint is the sweep's measurement at one (buffer count, drain BW).
type BurstPoint struct {
	Buffers  int
	DrainBW  float64      // bytes/s per drain worker, 0 = unthrottled
	Apparent stats.Sample // checkpoint time as acked, ms
	Durable  stats.Sample // commit-inclusive time, ms
	DrainP50 stats.Sample // per-trial median drain latency, ms
	DrainP99 stats.Sample // per-trial p99 drain latency, ms
	Passthru stats.Sample // writes relayed synchronously (capacity pressure)
}

// BurstResult is the whole sweep.
type BurstResult struct {
	Trials   int
	Points   []BurstPoint
	Captures []MetricsCapture // one per point when env.Metrics is set
}

// BurstSweep measures apparent vs durable checkpoint time at each point:
// 0 burst nodes (the direct baseline, where apparent == durable by
// construction), then 1, 2 and 4, each with an unthrottled drain (disk
// speed) and one throttled to 48 MB/s per worker. The slower drain widens
// the apparent/durable gap and keeps the staging window occupied longer.
// With env.Metrics the last trial of every point keeps a registry snapshot
// pair (post-deploy, post-run) for `lwfsbench -metrics`.
func BurstSweep(env Env) (BurstResult, error) {
	cfg := env.sweepCfg(3)
	points := []BurstPoint{{Buffers: 0}} // no tier: the drain knob is meaningless
	for _, nb := range []int{1, 2, 4} {
		for _, bw := range []float64{0, 48 << 20} {
			points = append(points, BurstPoint{Buffers: nb, DrainBW: bw})
		}
	}
	points, caps, err := sweep(cfg, points, burstTrial)
	return BurstResult{Trials: cfg.Trials, Points: points, Captures: caps}, err
}

func (pt *BurstPoint) label() string {
	return fmt.Sprintf("buffers=%d bw=%s", pt.Buffers, bwLabel(pt.DrainBW))
}
func (pt *BurstPoint) summary() string {
	return fmt.Sprintf("apparent %s ms, durable %s ms", pt.Apparent.String(), pt.Durable.String())
}

func burstTrial(pt *BurstPoint, trial int, keep bool) ([]MetricsCapture, error) {
	spec := cluster.DevCluster().WithServers(burstServers)
	spec.ComputeNodes = burstProcs
	spec.BurstNodes = pt.Buffers
	spec.Burst.DrainBW = pt.DrainBW
	r := newRig(spec, keep)
	res, err := checkpoint.SetupLWFS(r.cl, r.l, checkpoint.Config{
		Procs:        burstProcs,
		BytesPerProc: burstBytesPerProc,
		Seed:         int64(trial)*104729 + int64(pt.Buffers)*131 + 17,
	})
	if err != nil {
		return nil, err
	}
	mc, err := r.run()
	if err != nil {
		return nil, err
	}
	if res.Aborted {
		return nil, errors.New("healthy run aborted")
	}
	pt.Apparent.Add(float64(res.Elapsed) / float64(time.Millisecond))
	pt.Durable.Add(float64(res.Durable) / float64(time.Millisecond))
	// Tier observables come from the registry, not per-server getters: the
	// drain-latency histograms merge exactly and pass-through counts sum
	// across buffers.
	reg := r.cl.Metrics()
	lat := reg.MergedHist("burst.*.drain.latency_ms")
	if lat.N() > 0 {
		pt.DrainP50.Add(lat.Percentile(50))
		pt.DrainP99.Add(lat.Percentile(99))
	}
	pt.Passthru.Add(reg.Sum("burst.*.passthroughs"))
	return one(mc), nil
}

func bwLabel(bw float64) string {
	if bw == 0 {
		return "disk"
	}
	return fmt.Sprintf("%.0fMB/s", bw/(1<<20))
}

// Render prints the sweep as a table: the durable/apparent ratio is the
// tier's payoff (1.0x on the no-tier baseline).
func (r BurstResult) Render(w io.Writer) {
	fmt.Fprintf(w, "# Burst staging tier: %d-process checkpoint, %d servers, %d MB/process, %d trials\n",
		burstProcs, burstServers, burstBytesPerProc>>20, r.Trials)
	fmt.Fprintln(w, "# apparent (acked, computation resumes) vs durable (drained + committed) checkpoint time")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "buffers\tdrain bw\tapparent (ms)\tdurable (ms)\tdurable/apparent\tdrain p50 (ms)\tdrain p99 (ms)\tpassthru")
	for _, pt := range r.Points {
		ratio := 0.0
		if pt.Apparent.Mean() > 0 {
			ratio = pt.Durable.Mean() / pt.Apparent.Mean()
		}
		p50, p99 := "-", "-"
		if pt.DrainP50.N() > 0 {
			p50 = fmt.Sprintf("%.1f", pt.DrainP50.Mean())
			p99 = fmt.Sprintf("%.1f", pt.DrainP99.Mean())
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%.2fx\t%s\t%s\t%.0f\n",
			pt.Buffers, bwLabel(pt.DrainBW), pt.Apparent.String(), pt.Durable.String(),
			ratio, p50, p99, pt.Passthru.Mean())
	}
	tw.Flush()
	RenderMetricsCaptures(w, r.Captures)
}
