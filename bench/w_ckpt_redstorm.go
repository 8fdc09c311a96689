package main

import (
	"fmt"
	"time"

	"lwfs/internal/cluster"
	"lwfs/internal/figures"
)

const whyCkptRedStorm = "Event-rate-bound: a 100 000-rank sampled checkpoint on 256 I/O nodes, direct then via 16 burst buffers; CPU goes to the sim kernel, portals workers and netsim delivery, little to osd.Blob/txn."

// Red Storm checkpoint size. 1 MiB per rank (not E22's 4 MiB) keeps one
// repetition near 2.5 s of host time; the bottleneck structure is set by
// bandwidth ratios, not by the dump size.
const (
	redStormExact   = 1000
	redStormRanks   = 100000
	redStormBytes   = 1 << 20
	redStormBuffers = 16
)

// redStormOpts derives the run from the seed: each rank dumps up to 3.75 KiB
// less than 1 MiB (still one chunk). RedStormOpts.Seed stays at E22's 22:
// it re-draws rank placement, which moves the apparent time by ±3 % and
// would drown any change smaller than that.
func redStormOpts(par params) figures.RedStormOpts {
	o := figures.RedStormOpts{
		Exact:        []int{redStormExact},
		TotalRanks:   redStormRanks,
		BytesPerProc: redStormBytes - int64(uint64(par.Seed)%16)*256,
		Buffers:      redStormBuffers,
		Seed:         22,
		Metrics:      par.Traced,
	}
	if par.Tiny {
		o.Exact = []int{50}
		o.TotalRanks = 2000
	}
	return o
}

func runCkptRedStorm(par params) (rep, error) {
	var out rep
	opts := redStormOpts(par)

	// Set-up. figures builds both machines inside the measured run; the
	// same two builds are made (and dropped) here to price them on their own.
	start := time.Now()
	for _, buffers := range []int{0, opts.Buffers} {
		spec := cluster.RedStorm()
		spec.ComputeNodes = opts.Exact[0]
		spec.BurstNodes = buffers
		cluster.New(spec).DeployLWFS()
	}
	out.SetupS = time.Since(start).Seconds()

	var rec *spanRecorder
	if par.Traced {
		rec = newSpanRecorder(2)
		opts.Progress = func(string, ...interface{}) {
			rec.end(len(rec.spans)-1, 0)
			rec.begin(0, "figures", "arm", 0)
		}
	}
	var res figures.RedStormResult
	host, err := measure(par.Traced, func() (err error) {
		if rec != nil {
			rec.begin(0, "figures", "arm", 0)
		}
		res, err = figures.RedStormSweep(opts)
		return err
	})
	if err != nil {
		// RedStormSweep fails a point whose shadow load is incomplete or
		// reported errors, or whose dump aborted.
		return out, err
	}
	out.Host = host
	if len(res.Points) != 2 || res.Points[0].Staged || !res.Points[1].Staged {
		return out, fmt.Errorf("ckpt_redstorm: want a direct and a staged point, got %+v", res.Points)
	}
	direct, staged := res.Points[0], res.Points[1]

	total := float64(opts.TotalRanks) * float64(opts.BytesPerProc)
	apparent := staged.Apparent.Seconds()
	out.Sim = map[string]float64{
		"sim_elapsed_s": apparent,
		"sim_durable_s": staged.Durable.Seconds(),
		"sim_mbps":      total / 1e6 / apparent,
		"sim_ops_per_s": float64(opts.TotalRanks) / apparent, // rank dumps acknowledged per second
	}
	out.Attempted = 2 * opts.TotalRanks // every rank's dump, in both arms

	if par.Traced {
		v := map[string]float64{}
		// Counts add across the two arms; a ratio and a percentile do not,
		// so those two are the staged arm's (the last capture).
		var arm map[string]float64
		for _, c := range res.Captures {
			arm = registryValues(c.Final, c.Base)
			for name, x := range arm {
				v[name] += x
			}
		}
		v["authz.cap_cache_hit_ratio"] = arm["authz.cap_cache_hit_ratio"]
		v["burst.drain_lat_ms_p99"] = arm["burst.drain_lat_ms_p99"]
		v["sim.events_per_wall_s"] = v["sim.events_dispatched"] / host.WallS
		v["portals.rpcs_per_op"] = v["portals.rpcs"] / float64(out.Attempted)
		v["osd.disk_busy_max"] = direct.DiskBusy
		v["netsim.nic_busy_max"] = max(direct.StorNIC, staged.StorNIC)
		v["burst.buf_nic_busy_max"] = staged.BufNIC
		ms := rec.hostMs("figures")
		ms = ms[:len(ms)-1] // the span opened after the last arm never closes
		v["figures.points"] = float64(len(ms))
		v["figures.point_wall_ms_p50"] = percentile(ms, 50)
		v["figures.point_wall_ms_max"] = percentile(ms, 100)
		runtimeValues(v, host)
		out.Layer = v
		out.Spans = rec.spans[:len(rec.spans)-1]
	}
	return out, nil
}
