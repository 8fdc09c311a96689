// Package figures regenerates every table and figure of the paper's
// evaluation (§2 Tables 1–2, §4 Figures 9–10, and the §4 petaflop
// projection) and the extension experiments grown on top of them. Each
// experiment returns structured results suitable both for the cmd/lwfsbench
// text reports and for assertions in tests and benches.
//
// Experiments (experiments.go) is the one table of them: name, description
// and a Run that owns the sweep call and the report. Each has one size;
// Env's sizing fields shrink a sweep explicitly.
// harness.go holds what the drivers share — sweep, the points × trials
// loop, and rig, the machine one trial runs on — so a driver file is its
// point list, its per-trial body and its Render.
//
// The paper-vs-measured record lives in EXPERIMENTS.md at the repository
// root; cmd/lwfsbench/testdata/golden pins every report.
package figures

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"text/tabwriter"
	"time"

	"lwfs/internal/checkpoint"
	"lwfs/internal/cluster"
	"lwfs/internal/metrics"
	"lwfs/internal/stats"
)

// MetricsCapture pairs two registry snapshots around one sweep point: Base
// right after deployment, Final after the run. Experiments that accept a
// Metrics option fill one per point; `lwfsbench -metrics` renders them as
// delta tables (RPC rates, cache hit ratios, queue depths, drain backlog —
// no experiment-specific getter code involved).
type MetricsCapture struct {
	Label       string
	Base, Final metrics.Snapshot
}

// RenderMetricsCaptures prints each capture as a snapshot-delta table.
func RenderMetricsCaptures(w io.Writer, caps []MetricsCapture) {
	for _, c := range caps {
		fmt.Fprintf(w, "\n## metrics: %s\n", c.Label)
		c.Final.Diff(c.Base).WriteTable(w)
	}
}

// Sweep parameters shared by the Figure 9 and Figure 10 experiments. The
// paper sweeps 2–16 servers and up to ~64 client processes, ≥5 trials.
var (
	// DefaultServers are the storage-server counts of Figures 9 and 10.
	DefaultServers = []int{2, 4, 8, 16}
	// DefaultClients are the client-process counts swept on the x axes.
	DefaultClients = []int{1, 2, 4, 8, 16, 32, 48, 64}
	// DefaultTrials matches the paper's "minimum of 5 trials".
	DefaultTrials = 5
	// DefaultBytesPerProc matches the paper: every process writes 512 MB.
	DefaultBytesPerProc = int64(512) << 20
)

// Impl names one checkpoint implementation under test.
type Impl string

// The three §4 checkpoint implementations.
const (
	ImplLWFS      Impl = "lwfs-object-per-process"
	ImplPFSFile   Impl = "lustre-file-per-process"
	ImplPFSShared Impl = "lustre-shared-file"
)

// runner dispatches an implementation.
func (im Impl) run(spec cluster.Spec, cfg checkpoint.Config) (checkpoint.Result, error) {
	switch im {
	case ImplLWFS:
		return checkpoint.RunLWFS(spec, cfg)
	case ImplPFSFile:
		return checkpoint.RunPFSFilePerProcess(spec, cfg)
	case ImplPFSShared:
		return checkpoint.RunPFSShared(spec, cfg)
	default:
		return checkpoint.Result{}, fmt.Errorf("figures: unknown impl %q", im)
	}
}

// Fig9Opts parameterize the Figure 9 sweep.
type Fig9Opts struct {
	Servers      []int
	Clients      []int
	Trials       int
	BytesPerProc int64
	Progress     func(format string, args ...interface{}) // optional
}

// Fig9Result holds one implementation's panel of Figure 9: throughput
// (MB/s) vs client processes, one series per server count.
type Fig9Result struct {
	Impl   Impl
	Series []stats.Series // one per server count, in Servers order
}

// Fig9 regenerates one panel of Figure 9.
func Fig9(im Impl, opts Fig9Opts) (Fig9Result, error) {
	def(&opts.BytesPerProc, DefaultBytesPerProc)
	series, err := seriesSweep(string(im), "MB/s", opts.Servers, opts.Clients, opts.Trials, opts.Progress,
		func(spec cluster.Spec, clients, trial int) (float64, error) {
			r, err := im.run(spec, checkpoint.Config{
				Procs:        clients,
				BytesPerProc: opts.BytesPerProc,
				Seed:         int64(trial)*7919 + int64(clients),
			})
			return r.ThroughputMBs(), err
		})
	return Fig9Result{Impl: im, Series: series}, err
}

// Fig10Opts parameterize the Figure 10 create-throughput sweep.
type Fig10Opts struct {
	Servers    []int
	Clients    []int
	Trials     int
	OpsPerProc int
	Progress   func(format string, args ...interface{})
}

// Fig10Result holds the create-throughput series (ops/s vs clients) for one
// system, one series per server count — panels (b) and (c) of Figure 10;
// panel (a) is the 16-server series of both systems on one log plot.
type Fig10Result struct {
	System string // "lwfs" or "lustre"
	Series []stats.Series
}

// Fig10 regenerates the create-throughput panels.
func Fig10(system string, opts Fig10Opts) (Fig10Result, error) {
	def(&opts.OpsPerProc, 32)
	var create func(spec cluster.Spec, procs, opsPerProc int, seed int64) (checkpoint.CreateResult, error)
	switch system {
	case "lwfs":
		create = checkpoint.RunCreateOnlyLWFS
	case "lustre":
		create = checkpoint.RunCreateOnlyPFS
	default:
		return Fig10Result{System: system}, fmt.Errorf("figures: unknown system %q", system)
	}
	series, err := seriesSweep(system, "ops/s", opts.Servers, opts.Clients, opts.Trials, opts.Progress,
		func(spec cluster.Spec, clients, trial int) (float64, error) {
			r, err := create(spec, clients, opts.OpsPerProc, int64(trial)*104729+int64(clients))
			return r.OpsPerSec, err
		})
	return Fig10Result{System: system, Series: series}, err
}

// seriesPoint is one (server count, client count) point of Figure 9 or 10.
type seriesPoint struct {
	what, unit       string
	servers, clients int
	y                stats.Sample
}

func (pt *seriesPoint) label() string {
	return fmt.Sprintf("%s servers=%d clients=%d", pt.what, pt.servers, pt.clients)
}
func (pt *seriesPoint) summary() string { return pt.y.String() + " " + pt.unit }

// seriesSweep is the shape Figures 9 and 10 share: one series per server
// count, one point per client count, measure's y value sampled over trials.
// The whole servers × clients grid is one sweep, handed to sweep heaviest
// first — clients descending, then servers descending — because a point's
// host cost grows with its clients and sweep claims in list order: in grid
// order the 16 × 64 point was claimed last and ran alone at the end of every
// sweep, while heaviest first the many-client points start together and the
// cheap ones fill in behind them (on two workers, per-point times model the
// benchmark's five Fig. 9/10 sweeps at 565 ms in grid order and 433 ms
// heaviest first). The results come back through the same permutation, so
// the series are in the input lists' order, duplicates and all. Empty sweep
// parameters take the paper's.
func seriesSweep(what, unit string, servers, clients []int, trials int, progress func(string, ...interface{}),
	measure func(spec cluster.Spec, clients, trial int) (float64, error)) ([]stats.Series, error) {
	defList(&servers, DefaultServers...)
	defList(&clients, DefaultClients...)
	def(&trials, DefaultTrials)
	grid := make([]seriesPoint, 0, len(servers)*len(clients))
	for _, n := range servers {
		for _, c := range clients {
			grid = append(grid, seriesPoint{what: what, unit: unit, servers: n, clients: c})
		}
	}
	order := make([]int, len(grid)) // order[k] is the grid index of the k-th point swept
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(grid[b].clients, grid[a].clients), cmp.Compare(grid[b].servers, grid[a].servers))
	})
	points := make([]seriesPoint, len(grid))
	for k, i := range order {
		points[k] = grid[i]
	}
	_, _, err := sweep(sweepCfg{Trials: trials, Progress: progress}, points,
		func(pt *seriesPoint, trial int, _ bool) ([]MetricsCapture, error) {
			y, err := measure(cluster.DevCluster().WithServers(pt.servers), pt.clients, trial)
			if err == nil {
				pt.y.Add(y)
			}
			return nil, err
		})
	if err != nil {
		return nil, err
	}
	for k, i := range order {
		grid[i] = points[k]
	}
	out := make([]stats.Series, len(servers))
	for i, n := range servers {
		out[i].Name = fmt.Sprintf("%d servers", n)
		for j := range clients {
			pt := &grid[i*len(clients)+j]
			out[i].Add(float64(pt.clients), &pt.y)
		}
	}
	return out, nil
}

// RenderSeries prints series as an aligned text table: one row per x, one
// column per series (the shape gnuplot consumed for the paper's figures).
func RenderSeries(w io.Writer, title, xlabel, ylabel string, series []stats.Series) {
	fmt.Fprintf(w, "# %s\n# y: %s\n", title, ylabel)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s", xlabel)
	for _, s := range series {
		fmt.Fprintf(tw, "\t%s\tstddev", s.Name)
	}
	fmt.Fprintln(tw)
	if len(series) > 0 {
		for i, pt := range series[0].Points {
			fmt.Fprintf(tw, "%g", pt.X)
			for _, s := range series {
				if i < len(s.Points) {
					fmt.Fprintf(tw, "\t%.1f\t%.1f", s.Points[i].Mean, s.Points[i].StdDev)
				}
			}
			fmt.Fprintln(tw)
		}
	}
	tw.Flush()
}

// Table1Render prints the paper's Table 1.
func Table1Render(w io.Writer) {
	fmt.Fprintln(w, "# Table 1: Compute and I/O nodes for MPPs at the DOE laboratories")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Computer\tCompute Nodes\tI/O Nodes\tRatio")
	for _, m := range cluster.Table1 {
		fmt.Fprintf(tw, "%s (%s)\t%d\t%d\t%d:1\n", m.Name, m.Year, m.ComputeNodes, m.IONodes, m.Ratio())
	}
	tw.Flush()
}

// Projection is the §4 petaflop extrapolation: on a theoretical petaflop
// machine (100,000 compute nodes, 2,000 I/O nodes), file creation through a
// centralized metadata server takes minutes — roughly 10% of the whole
// checkpoint — while LWFS object creation stays in seconds.
type Projection struct {
	ComputeNodes int
	IONodes      int
	BytesPerProc int64

	MDSCreatesPerSec  float64 // measured on the dev-cluster sim
	LWFSCreatesPerSec float64 // measured, per server, on the dev-cluster sim

	PFSCreateTime  time.Duration // n creates through one MDS
	LWFSCreateTime time.Duration // n creates over all I/O nodes
	DumpTime       time.Duration // data / (io nodes × disk bandwidth)
	PFSCreateShare float64       // create fraction of PFS checkpoint
}

// PetaflopProjection measures create rates on the simulated dev cluster,
// then extrapolates to the paper's theoretical petaflop system. Each
// compute node dumps its full memory (8 GB for a petaflop-class node —
// the assumption that makes file creation "roughly 10% of the total time
// for the checkpoint operation", §4). Every I/O node writes at Red Storm's
// I/O-node disk bandwidth (Table 2's 400 MB/s RAID).
func PetaflopProjection() (Projection, error) {
	pr := Projection{
		ComputeNodes: 100000,
		IONodes:      2000,
		BytesPerProc: 8 << 30,
	}
	spec := cluster.DevCluster().WithServers(16)
	pfsRate, err := checkpoint.RunCreateOnlyPFS(spec, 32, 16, 1)
	if err != nil {
		return pr, err
	}
	lwfsRate, err := checkpoint.RunCreateOnlyLWFS(spec, 32, 16, 1)
	if err != nil {
		return pr, err
	}
	pr.MDSCreatesPerSec = pfsRate.OpsPerSec
	pr.LWFSCreatesPerSec = lwfsRate.OpsPerSec / 16 // per server

	n := float64(pr.ComputeNodes)
	pr.PFSCreateTime = time.Duration(n / pr.MDSCreatesPerSec * float64(time.Second))
	pr.LWFSCreateTime = time.Duration(n / (pr.LWFSCreatesPerSec * float64(pr.IONodes)) * float64(time.Second))
	totalBytes := n * float64(pr.BytesPerProc)
	diskBW := cluster.RedStorm().Disk.BandwidthBps
	pr.DumpTime = time.Duration(totalBytes / (float64(pr.IONodes) * diskBW) * float64(time.Second))
	pr.PFSCreateShare = pr.PFSCreateTime.Seconds() /
		(pr.PFSCreateTime.Seconds() + pr.DumpTime.Seconds())
	return pr, nil
}

// Render prints the projection.
func (pr Projection) Render(w io.Writer) {
	fmt.Fprintf(w, "# Petaflop projection (§4): %d compute nodes, %d I/O nodes, %d MB/process\n",
		pr.ComputeNodes, pr.IONodes, pr.BytesPerProc>>20)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "measured MDS create rate\t%.0f ops/s\n", pr.MDSCreatesPerSec)
	fmt.Fprintf(tw, "measured LWFS create rate\t%.0f ops/s per server\n", pr.LWFSCreatesPerSec)
	fmt.Fprintf(tw, "PFS file creation (100k files, 1 MDS)\t%v\n", pr.PFSCreateTime.Round(time.Second))
	fmt.Fprintf(tw, "LWFS object creation (100k objects, 2k servers)\t%v\n", pr.LWFSCreateTime.Round(time.Millisecond))
	fmt.Fprintf(tw, "I/O dump phase\t%v\n", pr.DumpTime.Round(time.Second))
	fmt.Fprintf(tw, "PFS create share of checkpoint\t%.0f%%\n", pr.PFSCreateShare*100)
	tw.Flush()
}
