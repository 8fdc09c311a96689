package figures

import (
	"fmt"
	"io"
	"slices"
	"text/tabwriter"
	"time"

	"lwfs/internal/cluster"
	"lwfs/internal/core"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/stats"
	"lwfs/internal/storage"
	"lwfs/internal/stripe"
)

// The redundancy sweep (experiment E19): what stripe-level redundancy costs
// and buys. Three tables: (1) full-stripe write bandwidth per scheme — the
// steady-state overhead of replica fan-out and parity computation; (2) read
// latency healthy vs one-server-down — the price of a degraded read that
// reconstructs the missing column from survivors; (3) online rebuild time
// as the number of affected layouts grows — the repair window during which
// a second failure would be fatal.

const (
	rebuildServers = 4         // storage servers, one per node
	rebuildUnit    = 256 << 10 // stripe unit
	rebuildDataMB  = 8         // per-layout payload in MB
)

// RebuildWritePoint is one scheme's full-stripe write bandwidth (logical
// bytes; the redundant copies/parity are the overhead being measured).
type RebuildWritePoint struct {
	Scheme string
	MBs    stats.Sample
}

// RebuildReadPoint is one scheme's full-file read latency, healthy vs with
// one storage server crashed (the degraded path reconstructs around it).
type RebuildReadPoint struct {
	Scheme     string
	HealthyMs  stats.Sample
	DegradedMs stats.Sample
}

// RebuildPoint is one rebuild-time measurement: n parity layouts each lose
// one object to a server crash, and a Rebuilder repairs them all.
type RebuildPoint struct {
	Objects   int          // layouts repaired (one lost object each)
	Ms        stats.Sample // total repair time
	RepairMBs stats.Sample // reconstruction throughput, rebuilt MB/s
}

// RebuildResult is the whole sweep.
type RebuildResult struct {
	Trials   int
	Writes   []RebuildWritePoint
	Reads    []RebuildReadPoint
	Rebuilds []RebuildPoint
	Captures []MetricsCapture // when env.Metrics is set
}

// rebuildRetry arms clients in the crash phases so RPCs against the dead
// server fail over to the degraded path instead of hanging. The timeout has
// to comfortably exceed a full per-object transfer at DevCluster NIC speed
// (multi-MB extents share the client NIC when the engine fans out), or the
// engine would misread slow-but-healthy servers as dead.
var rebuildRetry = portals.RetryPolicy{
	MaxAttempts: 2,
	Timeout:     250 * time.Millisecond,
	Backoff:     time.Millisecond,
	Jitter:      100 * time.Microsecond,
}

// RebuildSweep measures every point; the rebuild-time table repairs 4, 8
// and 16 layouts. With env.Metrics the last trial of each degraded-read and
// rebuild point keeps a registry snapshot pair.
func RebuildSweep(env Env) (res RebuildResult, err error) {
	cfg := env.sweepCfg(3)
	res.Trials = cfg.Trials

	writes := []RebuildWritePoint{{Scheme: "raid0"}, {Scheme: "replica2"}, {Scheme: "parity"}}
	if res.Writes, _, err = sweep(cfg, writes, rebuildWriteTrial); err != nil {
		return res, err
	}
	reads := []RebuildReadPoint{{Scheme: "replica2"}, {Scheme: "parity"}}
	if res.Reads, res.Captures, err = sweep(cfg, reads, rebuildReadTrial); err != nil {
		return res, err
	}
	repairs := []RebuildPoint{{Objects: 4}, {Objects: 8}, {Objects: 16}}
	var caps []MetricsCapture
	res.Rebuilds, caps, err = sweep(cfg, repairs, rebuildRepairTrial)
	res.Captures = append(res.Captures, caps...)
	return res, err
}

func (pt *RebuildWritePoint) label() string   { return "write scheme=" + pt.Scheme }
func (pt *RebuildWritePoint) summary() string { return pt.MBs.String() + " MB/s" }

func (pt *RebuildReadPoint) label() string { return "degraded-read scheme=" + pt.Scheme }
func (pt *RebuildReadPoint) summary() string {
	return fmt.Sprintf("healthy %s ms, degraded %s ms", pt.HealthyMs.String(), pt.DegradedMs.String())
}

func (pt *RebuildPoint) label() string { return fmt.Sprintf("rebuild objects=%d", pt.Objects) }
func (pt *RebuildPoint) summary() string {
	return fmt.Sprintf("%s ms, %s MB/s", pt.Ms.String(), pt.RepairMBs.String())
}

// onePerNode is a one-client dev cluster with one storage server per node,
// so crashing a server removes a whole placement target.
func onePerNode(servers int) cluster.Spec {
	spec := cluster.DevCluster()
	spec.ComputeNodes = 1
	spec.ServersPerNode = 1
	return spec.WithServers(servers)
}

// rebuildLayout creates one scheme layout of size bytes with its objects
// placed round-robin from the base server slot.
func rebuildLayout(p *sim.Proc, c *core.Client, caps core.CapSet, scheme string, base int, unit, size int64) (stripe.Layout, error) {
	l := stripe.Layout{Size: size, Unit: unit}
	var nobjs int
	switch scheme {
	case "replica2":
		l.Scheme, l.Copies, nobjs = stripe.Replica, 2, 4
	case "parity":
		l.Scheme, nobjs = stripe.Parity, 4
	default:
		l.Scheme, nobjs = stripe.Raid0, 4
	}
	for i := 0; i < nobjs; i++ {
		ref, err := c.CreateObject(p, c.Server(base+i), caps)
		if err != nil {
			return l, err
		}
		l.Objs = append(l.Objs, ref)
	}
	return l, l.Validate()
}

// crashServer fail-stops the storage server behind the target.
func crashServer(l *cluster.LWFS, t storage.Target) {
	for _, srv := range l.Servers {
		if (storage.Target{Node: srv.Node(), Port: srv.RPCPort()}) == t {
			srv.Crash()
		}
	}
}

// rebuildWriteTrial measures one full-stripe write's logical bandwidth.
func rebuildWriteTrial(pt *RebuildWritePoint, trial int, _ bool) ([]MetricsCapture, error) {
	const bytes = rebuildDataMB << 20
	_, err := newRig(onePerNode(rebuildServers), false).bench(noRetry, 0, func(p *sim.Proc, c *core.Client) error {
		caps, err := allCaps(p, c)
		if err != nil {
			return err
		}
		l, err := rebuildLayout(p, c, caps, pt.Scheme, trial, rebuildUnit, bytes)
		if err != nil {
			return err
		}
		eng := stripe.NewEngine(c, caps, 0)
		t0 := p.Now()
		if _, err := eng.WriteAt(p, l, 0, netsim.SyntheticPayload(bytes)); err != nil {
			return err
		}
		pt.MBs.Add(float64(bytes) / (1 << 20) / p.Now().Sub(t0).Seconds())
		return nil
	})
	return nil, err
}

// rebuildReadTrial measures one full read healthy, then crashes the server
// behind the layout's second object and measures the degraded read. A parity
// layout is written with a seeded run, so its degraded read XORs real bytes,
// and the trial fails unless they are the run's.
func rebuildReadTrial(pt *RebuildReadPoint, trial int, keep bool) ([]MetricsCapture, error) {
	r := newRig(onePerNode(rebuildServers), keep)
	const bytes = rebuildDataMB << 20
	mc, err := r.bench(rebuildRetry, int64(trial)+17, func(p *sim.Proc, c *core.Client) error {
		caps, err := allCaps(p, c)
		if err != nil {
			return err
		}
		l, err := rebuildLayout(p, c, caps, pt.Scheme, trial, rebuildUnit, bytes)
		if err != nil {
			return err
		}
		eng := stripe.NewEngine(c, caps, 0)
		data := netsim.SyntheticPayload(bytes)
		if l.Scheme == stripe.Parity {
			data = netsim.SeededPayload(uint64(trial)+1, bytes)
		}
		if _, err := eng.WriteAt(p, l, 0, data); err != nil {
			return err
		}
		t0 := p.Now()
		if _, err := eng.ReadAt(p, l, 0, bytes); err != nil {
			return fmt.Errorf("healthy read: %w", err)
		}
		healthy := p.Now().Sub(t0)
		crashServer(r.l, storage.TargetOf(l.Objs[1]))
		t0 = p.Now()
		got, err := eng.ReadAt(p, l, 0, bytes)
		if err != nil {
			return fmt.Errorf("degraded read: %w", err)
		}
		if !slices.Equal(got.Bytes(), data.Bytes()) {
			return fmt.Errorf("degraded read: the bytes differ from the ones written")
		}
		pt.HealthyMs.Add(ms(healthy))
		pt.DegradedMs.Add(ms(p.Now().Sub(t0)))
		return nil
	})
	return one(mc), err
}

// rebuildRepairTrial writes n parity layouts, crashes one server, and times
// a Rebuilder repairing every layout that lost an object to it.
func rebuildRepairTrial(pt *RebuildPoint, trial int, keep bool) ([]MetricsCapture, error) {
	r := newRig(onePerNode(rebuildServers), keep)
	const bytes = rebuildDataMB << 20
	mc, err := r.bench(rebuildRetry, int64(trial)+29, func(p *sim.Proc, c *core.Client) error {
		caps, err := allCaps(p, c)
		if err != nil {
			return err
		}
		eng := stripe.NewEngine(c, caps, 0)
		layouts := make([]stripe.Layout, pt.Objects)
		for i := range layouts {
			l, err := rebuildLayout(p, c, caps, "parity", i, rebuildUnit, bytes)
			if err != nil {
				return err
			}
			if _, err := eng.WriteAt(p, l, 0, netsim.SyntheticPayload(bytes)); err != nil {
				return err
			}
			layouts[i] = l
		}
		dead := storage.Target{Node: r.l.Servers[0].Node(), Port: r.l.Servers[0].RPCPort()}
		crashServer(r.l, dead)
		rb := stripe.NewRebuilder(eng)
		var rebuilt int64
		t0 := p.Now()
		for i, l := range layouts {
			if _, err := rb.Rebuild(p, l, dead, c.Servers()); err != nil {
				return fmt.Errorf("layout %d: %w", i, err)
			}
			for j := range l.Objs {
				if storage.TargetOf(l.Objs[j]) == dead {
					rebuilt += l.ObjectLength(j)
				}
			}
		}
		elapsed := p.Now().Sub(t0)
		var mbs float64
		if elapsed > 0 {
			mbs = float64(rebuilt) / (1 << 20) / elapsed.Seconds()
		}
		pt.Ms.Add(ms(elapsed))
		pt.RepairMBs.Add(mbs)
		return nil
	})
	return one(mc), err
}

// Render prints the three tables.
func (r RebuildResult) Render(w io.Writer) {
	fmt.Fprintf(w, "# Redundant stripe layouts: %d servers, %d MB per layout, unit %d KiB, %d trials\n",
		rebuildServers, rebuildDataMB, rebuildUnit>>10, r.Trials)

	fmt.Fprintln(w, "\n## full-stripe write bandwidth (logical MB/s; redundancy is the gap)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\twrite\tvs raid0")
	var base float64
	for _, pt := range r.Writes {
		if pt.Scheme == "raid0" {
			base = pt.MBs.Mean()
		}
	}
	for _, pt := range r.Writes {
		rel := "-"
		if base > 0 {
			rel = fmt.Sprintf("%.2fx", pt.MBs.Mean()/base)
		}
		fmt.Fprintf(tw, "%s\t%.0f MB/s\t%s\n", pt.Scheme, pt.MBs.Mean(), rel)
	}
	tw.Flush()

	fmt.Fprintln(w, "\n## read latency, healthy vs one server down (degraded reconstruction)")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\thealthy\tdegraded\tpenalty")
	for _, pt := range r.Reads {
		h, d := pt.HealthyMs.Mean(), pt.DegradedMs.Mean()
		pen := "-"
		if h > 0 {
			pen = fmt.Sprintf("%.1fx", d/h)
		}
		fmt.Fprintf(tw, "%s\t%.1f ms\t%.1f ms\t%s\n", pt.Scheme, h, d, pen)
	}
	tw.Flush()

	fmt.Fprintln(w, "\n## online rebuild time vs affected layouts (parity, one lost object each)")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "layouts\trebuild time\trepair throughput")
	for _, pt := range r.Rebuilds {
		fmt.Fprintf(tw, "%d\t%.1f ms\t%.0f MB/s\n", pt.Objects, pt.Ms.Mean(), pt.RepairMBs.Mean())
	}
	tw.Flush()
	RenderMetricsCaptures(w, r.Captures)
}
