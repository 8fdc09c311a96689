package main

import (
	"fmt"
	"math"
	"time"

	"lwfs/internal/checkpoint"
	"lwfs/internal/cluster"
	"lwfs/internal/figures"
	"lwfs/internal/stats"
)

const whyPaperFigs = "The paper's evaluation (Fig. 9 MB/s, Fig. 10 creates/s) and the accuracy check; only workload running the pfs Lustre baseline and the figures sweep loop of many small independent kernels."

// The EXPERIMENTS.md shape claims paper_shape_err measures deviation from.
const (
	paperLWFSPlateauMBs = 1400.0 // LWFS, 16 servers x 64 clients
	paperSharedOverFPP  = 0.5    // Lustre shared file / file per process, 16 x 64
	paperCreateScaling  = 8.0    // LWFS creates/s, 16 servers / 2 servers, 64 clients
	paperShapeLimit     = 0.15
)

var paperImpls = []figures.Impl{figures.ImplLWFS, figures.ImplPFSFile, figures.ImplPFSShared}

// paperSweep derives the sweep from the seed: up to 240 KiB on top of the
// 512 MiB each rank dumps, and 32 to 34 creates per process. That moves
// every virtual result from seed to seed while the host's work stays within
// a fraction of a percent, so seeds can be compared on the host clock.
func paperSweep(par params) (figures.Fig9Opts, figures.Fig10Opts) {
	f9 := figures.Fig9Opts{
		Servers:      []int{2, 16},
		Clients:      []int{1, 4, 16, 64},
		Trials:       1,
		BytesPerProc: 512<<20 + int64(uint64(par.Seed)%61)*(4<<10),
	}
	f10 := figures.Fig10Opts{
		Servers:    figures.DefaultServers,
		Clients:    figures.DefaultClients,
		Trials:     1,
		OpsPerProc: 32 + int(uint64(par.Seed)%3),
	}
	if par.Tiny {
		f9.BytesPerProc >>= 4
		f10.Clients = []int{1, 16, 64}
	}
	return f9, f10
}

func runPaperFigs(par params) (rep, error) {
	var out rep
	f9, f10 := paperSweep(par)

	// Set-up. figures builds one cluster per sweep point inside the
	// measured run, so the same builds are made (and dropped) here to
	// price them on their own.
	start := time.Now()
	builds := 0
	for _, servers := range f9.Servers {
		spec := cluster.DevCluster().WithServers(servers)
		for range f9.Clients {
			cluster.New(spec).DeployLWFS()
			cluster.New(spec).DeployPFS()
			cluster.New(spec).DeployPFS()
			builds += 3
		}
	}
	for _, servers := range f10.Servers {
		spec := cluster.DevCluster().WithServers(servers)
		for range f10.Clients {
			cluster.New(spec).DeployLWFS()
			cluster.New(spec).DeployPFS()
			builds += 2
		}
	}
	out.SetupS = time.Since(start).Seconds()

	var rec *spanRecorder
	if par.Traced {
		// One span per sweep point: figures reports a point when it ends,
		// so a point's span runs from the previous report to its own.
		rec = newSpanRecorder(builds)
		progress := func(string, ...interface{}) {
			rec.end(len(rec.spans)-1, 0)
			rec.begin(0, "figures", "point", 0)
		}
		f9.Progress, f10.Progress = progress, progress
	}

	panels := map[figures.Impl]figures.Fig9Result{}
	creates := map[string]figures.Fig10Result{}
	host, err := measure(par.Traced, func() error {
		if rec != nil {
			rec.begin(0, "figures", "point", 0)
		}
		for _, im := range paperImpls {
			r, err := figures.Fig9(im, f9)
			if err != nil {
				return err
			}
			panels[im] = r
		}
		for _, sys := range []string{"lwfs", "lustre"} {
			r, err := figures.Fig10(sys, f10)
			if err != nil {
				return err
			}
			creates[sys] = r
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	out.Host = host

	lwfs := at(panels[figures.ImplLWFS].Series, 16, 64)
	fpp := at(panels[figures.ImplPFSFile].Series, 16, 64)
	shared := at(panels[figures.ImplPFSShared].Series, 16, 64)
	lwfsCreates := at(creates["lwfs"].Series, 16, 64)
	lwfsCreates2 := at(creates["lwfs"].Series, 2, 64)
	lustreCreates := at(creates["lustre"].Series, 16, 64)

	shape := 0.0
	for _, dev := range []float64{
		lwfs/paperLWFSPlateauMBs - 1,
		shared/fpp/paperSharedOverFPP - 1,
		lwfsCreates/lwfsCreates2/paperCreateScaling - 1,
	} {
		shape = math.Max(shape, math.Abs(dev))
	}
	out.Sim = map[string]float64{
		// Fig. 9 counts MB as 2^20 bytes, like the paper's plots.
		"sim_mbps":        lwfs,
		"sim_elapsed_s":   64 * float64(f9.BytesPerProc) / (1 << 20) / lwfs,
		"sim_ops_per_s":   lwfsCreates,
		"paper_shape_err": shape,
	}
	out.Attempted = builds + 1 // every sweep point ran to completion, plus the shape check
	if !par.Tiny && shape > paperShapeLimit {
		out.Failed++
		out.Notes = append(out.Notes, fmt.Sprintf("paper_shape_err %.3f exceeds %.2f", shape, paperShapeLimit))
	}

	if par.Traced {
		ms := rec.hostMs("figures")
		ms = ms[:len(ms)-1] // the span opened after the last point never closes
		out.Layer = map[string]float64{
			"checkpoint.lwfs_mbps_16x64":            lwfs,
			"checkpoint.lustre_fpp_mbps_16x64":      fpp,
			"checkpoint.lustre_shared_mbps_16x64":   shared,
			"checkpoint.lwfs_creates_per_s_16x64":   lwfsCreates,
			"checkpoint.lustre_creates_per_s_16x64": lustreCreates,
			"figures.points":                        float64(len(ms)),
			"figures.point_wall_ms_p50":             percentile(ms, 50),
			"figures.point_wall_ms_max":             percentile(ms, 100),
		}
		runtimeValues(out.Layer, host)
		head, err := headlineCounters(f9)
		if err != nil {
			return out, err
		}
		for name, v := range head {
			out.Layer[name] = v
		}
		out.Spans = rec.spans[:len(rec.spans)-1]
	}
	return out, nil
}

// at returns the mean of the series for the given server count at x clients.
func at(series []stats.Series, servers, clients int) float64 {
	name := fmt.Sprintf("%d servers", servers)
	for _, s := range series {
		if s.Name != name {
			continue
		}
		return s.At(float64(clients))
	}
	return math.NaN()
}

// headlineCounters reruns the Fig. 9 headline kernel (LWFS, 16 servers x 64
// clients) on a cluster the benchmark owns, so a traced run can read the
// public counters figures.Fig9 keeps to itself.
func headlineCounters(f9 figures.Fig9Opts) (map[string]float64, error) {
	cl := cluster.New(cluster.DevCluster().WithServers(16))
	cl.RegisterUser("app", "s3cret")
	l := cl.DeployLWFS()
	base := cl.Metrics().Snapshot()
	res, err := checkpoint.SetupLWFS(cl, l, checkpoint.Config{Procs: 64, BytesPerProc: f9.BytesPerProc, Seed: 64})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cl.Run(); err != nil {
		return nil, err
	}
	wall := time.Since(start).Seconds()
	final := cl.Metrics().Snapshot()
	v := registryValues(final, base)
	v["sim.events_per_wall_s"] = v["sim.events_dispatched"] / wall
	v["portals.rpcs_per_op"] = v["portals.rpcs"] / float64(res.Procs)
	deviceValues(v, cl, l, final.At.Sub(base.At).Seconds())
	return v, nil
}
