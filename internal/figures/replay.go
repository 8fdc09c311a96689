package figures

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"lwfs/internal/core"
	"lwfs/internal/lwfspfs"
	"lwfs/internal/metrics"
	"lwfs/internal/sim"
	"lwfs/internal/stdfs"
	"lwfs/internal/trace"
)

// The trace-replay sweep (experiment E24): recorded application workloads
// driven back through the standard-library facade at increasing
// concurrency. Each embedded example trace (jacobi's checkpoint/restart,
// seismic's gather reads and redistribution, climate's timestep writes and
// hyperslab reads) is cloned and replayed by 1..N workers, each worker a
// separate compute-node client with its own lwfspfs mount. The table
// reports aggregate bandwidth, op rate and p99 op latency per concurrency
// level — how far the recorded workload scales before the servers, not the
// clients, are the bottleneck.

const (
	replayServers = 8                     // storage servers, one per node
	replayClones  = 64                    // trace copies per point
	replayTick    = 20 * time.Millisecond // timeline recorder interval
)

// ReplayPoint is one (trace, concurrency) measurement.
type ReplayPoint struct {
	Trace     string
	Workers   int
	Ops       int     // operations executed
	Errors    int     // operations failed
	MB        float64 // payload moved (1e6 bytes)
	ElapsedMs float64 // virtual wall time, first mount to last close
	MBps      float64 // aggregate payload bandwidth
	OpsPerSec float64 // aggregate op rate
	P99Ms     float64 // per-op latency tail

	// timeline, set on a point whose tick timeline is kept, records it.
	timeline *metrics.Recorder
}

// ReplayTimeline is one point's metric trajectories: the periodic recorder
// snapshots taken while the replay ran.
type ReplayTimeline struct {
	Trace   string
	Workers int
	Rec     *metrics.Recorder
}

// ReplayResult is the whole sweep.
type ReplayResult struct {
	Traces    []string
	Points    []ReplayPoint
	Captures  []MetricsCapture // under env.Metrics
	Timelines []ReplayTimeline // under env.Metrics
}

// ReplaySweep replays every embedded trace at every worker count in
// env.Clients (default 1, 4, 16, 64). Under env.Metrics it captures a
// registry snapshot pair per point and keeps the highest worker count's
// tick timeline per trace, for `lwfsbench -metrics`.
func ReplaySweep(env Env) (ReplayResult, error) {
	return replaySweep(env, trace.ExampleNames())
}

// replaySweep is ReplaySweep over the named traces only.
func replaySweep(env Env, traces []string) (ReplayResult, error) {
	defList(&env.Clients, 1, 4, 16, 64)
	res := ReplayResult{Traces: traces}
	top := env.Clients[len(env.Clients)-1]
	var points []ReplayPoint
	for _, name := range traces {
		for _, workers := range env.Clients {
			pt := ReplayPoint{Trace: name, Workers: workers}
			if env.Metrics && workers == top {
				pt.timeline = metrics.NewRecorder(replayTick, replayTimelinePatterns...)
			}
			points = append(points, pt)
		}
	}
	var err error
	res.Points, res.Captures, err = sweep(sweepCfg{1, env.Metrics, env.Progress}, points,
		func(pt *ReplayPoint, _ int, keep bool) ([]MetricsCapture, error) {
			mc, err := replayTrial(pt, keep)
			return one(mc), err
		})
	for _, pt := range res.Points {
		if pt.timeline != nil {
			res.Timelines = append(res.Timelines, ReplayTimeline{Trace: pt.Trace, Workers: pt.Workers, Rec: pt.timeline})
		}
	}
	return res, err
}

func (pt *ReplayPoint) label() string { return fmt.Sprintf("replay %s x%d", pt.Trace, pt.Workers) }
func (pt *ReplayPoint) summary() string {
	return fmt.Sprintf("%d ops, %.1f MB, %.1f MB/s, p99 %.2f ms", pt.Ops, pt.MB, pt.MBps, pt.P99Ms)
}

// replayTrial replays pt's trace once: a cluster with one compute node per
// worker, the bench client formatting the shared mount, then the trace
// replayer fanned out over per-worker clients. A point that keeps its
// timeline ticks its recorder for the duration; the replay's completion hook
// stops it — without that, its pending tick would keep the kernel run from
// finishing.
func replayTrial(pt *ReplayPoint, keep bool) (MetricsCapture, error) {
	tr, err := trace.Example(pt.Trace)
	if err != nil {
		return MetricsCapture{}, err
	}
	spec := onePerNode(replayServers)
	spec.ComputeNodes = pt.Workers
	r := newRig(spec, keep)
	cl := r.cl
	clients := make([]*core.Client, pt.Workers)
	for i := range clients {
		clients[i] = cl.NewClient(r.l, i)
	}

	var res *trace.Result
	mc, err := r.bench(noRetry, 0, func(p *sim.Proc, c *core.Client) error {
		pfs, err := lwfspfs.Format(p, c, "/replay", lwfspfs.Options{StripeUnit: 64 << 10})
		if err != nil {
			return err
		}
		cid := pfs.Container()
		// Workers mount in spawn order; each takes the next client. The
		// counter, not the worker id, assigns them — mounts may interleave
		// but each client still serves exactly one worker.
		next := 0
		mount := func(wp *sim.Proc) (trace.Mount, error) {
			c := clients[next]
			next++
			if err := c.Login(wp, benchUser, benchSecret); err != nil {
				return nil, err
			}
			wfs, err := lwfspfs.Mount(wp, c, "/replay", cid)
			if err != nil {
				return nil, err
			}
			return stdfs.New(wp, wfs).ReplayMount(), nil
		}
		ropts := trace.Options{Concurrency: pt.Workers, Clones: replayClones, Metrics: cl.Metrics()}
		if pt.timeline != nil {
			stop := pt.timeline.Start(cl.K, cl.Metrics())
			ropts.OnDone = func(*sim.Proc) { stop() }
		}
		res = trace.StartReplay(cl.K, tr, mount, ropts)
		return nil
	})
	if err == nil {
		err = res.Err()
	}
	if err != nil {
		return mc, err
	}
	pt.Ops = res.Ops
	pt.Errors = res.Errors
	pt.MB = float64(res.Bytes) / 1e6
	pt.ElapsedMs = ms(res.Elapsed())
	pt.MBps = res.MBps()
	if secs := res.Elapsed().Seconds(); secs > 0 {
		pt.OpsPerSec = float64(res.Ops) / secs
	}
	pt.P99Ms = res.OpMs.Percentile(99)
	return mc, nil
}

// replayTimelinePatterns are the trajectories worth plotting: replay
// progress and client pressure against server queue backlog.
var replayTimelinePatterns = []string{
	"trace.replay.ops",
	"trace.replay.bytes",
	"trace.replay.active_clones",
	"rpc.*.queue_depth",
}

// Render prints one table per trace plus, under Metrics, the recorded
// backlog-over-time columns for the highest-concurrency run.
func (r ReplayResult) Render(w io.Writer) {
	fmt.Fprintf(w, "# Trace replay through the fs.FS facade: %d servers, %d clones per point\n",
		replayServers, replayClones)
	for _, name := range r.Traces {
		fmt.Fprintf(w, "\n## %s\n", name)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "workers\tops\terrors\tMB\telapsed\tMB/s\tops/s\tp99 op")
		for _, pt := range r.Points {
			if pt.Trace != name {
				continue
			}
			fmt.Fprintf(tw, "%d\t%d\t%d\t%.1f\t%.1f ms\t%.1f\t%.0f\t%.2f ms\n",
				pt.Workers, pt.Ops, pt.Errors, pt.MB, pt.ElapsedMs, pt.MBps, pt.OpsPerSec, pt.P99Ms)
		}
		tw.Flush()
	}
	for _, tl := range r.Timelines {
		fmt.Fprintf(w, "\n## %s x%d timeline\n", tl.Trace, tl.Workers)
		tl.Rec.WriteColumns(w)
	}
	RenderMetricsCaptures(w, r.Captures)
}
