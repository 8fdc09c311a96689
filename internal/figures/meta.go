package figures

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"lwfs/internal/core"
	"lwfs/internal/lwfspfs"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/stats"
	"lwfs/internal/storage"
	"lwfs/internal/stripe"
)

// The metadata-replication sweep (experiment E21): what mirroring the
// per-file layout record costs and buys. Three tables: (1) create and
// metadata-flush latency as the mirror count grows — the steady-state RPC
// overhead every size-changing write pays; (2) open latency healthy vs
// with the primary mirror's server crashed — the degraded-open penalty of
// walking to a surviving mirror through a timeout; (3) metadata re-homing
// throughput — how fast Rebuild moves lost mirrors onto spares across a
// population of files.

const (
	metaServers = 6   // storage servers, one per node
	metaFileKB  = 256 // per-file payload in KB
)

// MetaWritePoint is one mirror count's metadata write cost: transactional
// create (which lands every mirror) and a size-changing one-byte append
// (whose cost beyond the constant data RPC is the metadata flush rewriting
// every mirror).
type MetaWritePoint struct {
	Copies   int
	CreateMs stats.Sample
	FlushMs  stats.Sample
}

// MetaOpenPoint is one mirror count's open latency, healthy vs with the
// primary mirror's server crashed. Single-record mounts have no degraded
// path — the crash makes the file unopenable — so DegradedMs stays empty
// for Copies == 1 and Unavailable counts the opens that failed instead.
type MetaOpenPoint struct {
	Copies      int
	HealthyMs   stats.Sample
	DegradedMs  stats.Sample
	Unavailable int
}

// MetaRebuildPoint is one re-homing measurement: a server hosting metadata
// mirrors (and, under a replica scheme, some data copies) crashes, and
// Rebuild walks every file, re-homing lost mirrors onto spares.
type MetaRebuildPoint struct {
	Files   int          // files swept by Rebuild
	Ms      stats.Sample // total repair time
	Rehomed stats.Sample // metadata mirrors re-created (rebuild.meta_rehomed delta)
}

// MetaResult is the whole sweep.
type MetaResult struct {
	Trials   int
	Writes   []MetaWritePoint
	Opens    []MetaOpenPoint
	Rebuilds []MetaRebuildPoint
	Captures []MetricsCapture // when env.Metrics is set
}

// metaRetry arms sweep clients so RPCs against a crashed mirror server time
// out quickly; layout records are KB-scale, so the timeout only has to cover
// RPC round-trips, not bulk transfers.
var metaRetry = portals.RetryPolicy{
	MaxAttempts: 2,
	Timeout:     50 * time.Millisecond,
	Backoff:     time.Millisecond,
	Jitter:      100 * time.Microsecond,
}

// metaOptions is the mount configuration every sweep point uses: a replica
// scheme (so the data side survives the crashes the sweep injects) with the
// metadata mirror count under test.
func metaOptions(copies int) lwfspfs.Options {
	return lwfspfs.Options{
		StripeUnit: 64 << 10,
		Scheme:     stripe.Replica,
		MetaCopies: copies,
	}
}

// metaCopiesPoint is one mirror count's row in both the write-cost and the
// open-latency table: one trial feeds both.
type metaCopiesPoint struct {
	w MetaWritePoint
	o MetaOpenPoint
}

// MetaSweep measures every point; the re-homing table sweeps 4 and 8
// files. With env.Metrics the last trial of each degraded-open and
// re-homing point keeps a registry snapshot pair.
func MetaSweep(env Env) (res MetaResult, err error) {
	cfg := env.sweepCfg(3)
	res.Trials = cfg.Trials

	var byCopies []metaCopiesPoint
	for _, m := range []int{1, 2, 3} { // the metadata mirror counts under test
		byCopies = append(byCopies, metaCopiesPoint{MetaWritePoint{Copies: m}, MetaOpenPoint{Copies: m}})
	}
	_, res.Captures, err = sweep(cfg, byCopies, metaOpenTrial)
	for _, pt := range byCopies {
		res.Writes = append(res.Writes, pt.w)
		res.Opens = append(res.Opens, pt.o)
	}
	if err != nil {
		return res, err
	}

	rehomes := []MetaRebuildPoint{{Files: 4}, {Files: 8}}
	var caps []MetricsCapture
	res.Rebuilds, caps, err = sweep(cfg, rehomes, metaRehomeTrial)
	res.Captures = append(res.Captures, caps...)
	return res, err
}

func (pt *metaCopiesPoint) label() string { return fmt.Sprintf("degraded-open copies=%d", pt.w.Copies) }
func (pt *metaCopiesPoint) summary() string {
	return fmt.Sprintf("create %s ms, flush %s ms, open %s ms, degraded %s ms (%d unavailable)", pt.w.CreateMs.String(),
		pt.w.FlushMs.String(), pt.o.HealthyMs.String(), pt.o.DegradedMs.String(), pt.o.Unavailable)
}

func (pt *MetaRebuildPoint) label() string { return fmt.Sprintf("meta-rehome files=%d", pt.Files) }
func (pt *MetaRebuildPoint) summary() string {
	return fmt.Sprintf("%s ms, %s mirrors re-homed", pt.Ms.String(), pt.Rehomed.String())
}

// metaOpenTrial formats a mount with the point's mirror count, then
// measures create, a metadata flush (Close after a growing write), a
// healthy open, and — after crashing the primary mirror's server — a
// degraded open. With a single record the post-crash open fails by design;
// that is recorded, not treated as an error.
func metaOpenTrial(pt *metaCopiesPoint, trial int, keep bool) ([]MetricsCapture, error) {
	r := newRig(onePerNode(metaServers), keep)
	copies := pt.w.Copies
	const bytes = metaFileKB << 10
	mc, err := r.bench(metaRetry, int64(trial)+41, func(p *sim.Proc, c *core.Client) error {
		fs, err := lwfspfs.Format(p, c, fmt.Sprintf("/meta%d", trial), metaOptions(copies))
		if err != nil {
			return err
		}
		path := fmt.Sprintf("/f-%d-%d.bin", copies, trial)
		t0 := p.Now()
		f, err := fs.Create(p, path)
		if err != nil {
			return err
		}
		createMs := ms(p.Now().Sub(t0))
		if _, err := f.WriteAt(p, 0, netsim.SyntheticPayload(bytes)); err != nil {
			return err
		}
		// A one-byte append: the data RPC is constant-cost, so what scales
		// with the mirror count is the metadata flush every size-changing
		// write pays.
		t0 = p.Now()
		if _, err := f.WriteAt(p, bytes, netsim.SyntheticPayload(1)); err != nil {
			return err
		}
		flushMs := ms(p.Now().Sub(t0))
		if err := f.Close(p); err != nil {
			return err
		}

		t0 = p.Now()
		g, err := fs.Open(p, path)
		if err != nil {
			return fmt.Errorf("healthy open: %w", err)
		}
		healthyMs := ms(p.Now().Sub(t0))

		crashServer(r.l, storage.TargetOf(g.MetaRefs()[0]))
		t0 = p.Now()
		_, err = fs.Open(p, path)
		if err != nil && copies > 1 {
			return fmt.Errorf("degraded open: %w", err)
		}
		pt.w.CreateMs.Add(createMs)
		pt.w.FlushMs.Add(flushMs)
		pt.o.HealthyMs.Add(healthyMs)
		switch {
		case err != nil:
			pt.o.Unavailable++
		case copies > 1:
			pt.o.DegradedMs.Add(ms(p.Now().Sub(t0)))
		}
		return nil
	})
	return one(mc), err
}

// metaRehomeTrial creates n files on a two-mirror mount, crashes the server
// hosting the first file's primary mirror, and times Rebuild sweeping every
// file — re-homing lost metadata mirrors (and repairing any data copies the
// dead server held) onto the survivors.
func metaRehomeTrial(pt *MetaRebuildPoint, trial int, keep bool) ([]MetricsCapture, error) {
	r := newRig(onePerNode(metaServers), keep)
	rehomedBase := r.cl.Metrics().Sum("rebuild.meta_rehomed")
	const bytes = metaFileKB << 10
	var elapsed time.Duration
	mc, err := r.bench(metaRetry, int64(trial)+53, func(p *sim.Proc, c *core.Client) error {
		fs, err := lwfspfs.Format(p, c, fmt.Sprintf("/rehome%d", trial), metaOptions(2))
		if err != nil {
			return err
		}
		var dead storage.Target
		paths := make([]string, pt.Files)
		for i := range paths {
			paths[i] = fmt.Sprintf("/f-%d-%d.bin", i, trial)
			f, err := fs.Create(p, paths[i])
			if err != nil {
				return err
			}
			if _, err := f.WriteAt(p, 0, netsim.SyntheticPayload(bytes)); err != nil {
				return err
			}
			if err := f.Close(p); err != nil {
				return err
			}
			if i == 0 {
				dead = storage.TargetOf(f.MetaRefs()[0])
			}
		}
		crashServer(r.l, dead)
		t0 := p.Now()
		for _, path := range paths {
			if err := fs.Rebuild(p, path, dead); err != nil {
				return fmt.Errorf("rebuild %s: %w", path, err)
			}
		}
		elapsed = p.Now().Sub(t0)
		return nil
	})
	if err != nil {
		return nil, err
	}
	pt.Ms.Add(ms(elapsed))
	pt.Rehomed.Add(r.cl.Metrics().Sum("rebuild.meta_rehomed") - rehomedBase)
	return one(mc), nil
}

// ms converts a simulated duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// Render prints the three tables.
func (r MetaResult) Render(w io.Writer) {
	fmt.Fprintf(w, "# Replicated metadata: %d servers, %d KB files, replica-2 data, %d trials\n",
		metaServers, metaFileKB, r.Trials)

	fmt.Fprintln(w, "\n## create / metadata-flush latency vs mirror count")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mirrors\tcreate\tflush")
	for _, pt := range r.Writes {
		fmt.Fprintf(tw, "%d\t%.2f ms\t%.2f ms\n", pt.Copies, pt.CreateMs.Mean(), pt.FlushMs.Mean())
	}
	tw.Flush()

	fmt.Fprintln(w, "\n## open latency, healthy vs primary mirror's server crashed")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mirrors\thealthy\tdegraded\tpenalty")
	for _, pt := range r.Opens {
		if pt.Copies == 1 {
			fmt.Fprintf(tw, "%d\t%.2f ms\tunopenable (%d/%d)\t-\n",
				pt.Copies, pt.HealthyMs.Mean(), pt.Unavailable, r.Trials)
			continue
		}
		h, d := pt.HealthyMs.Mean(), pt.DegradedMs.Mean()
		pen := "-"
		if h > 0 {
			pen = fmt.Sprintf("%.1fx", d/h)
		}
		fmt.Fprintf(tw, "%d\t%.2f ms\t%.2f ms\t%s\n", pt.Copies, h, d, pen)
	}
	tw.Flush()

	fmt.Fprintln(w, "\n## metadata re-homing: Rebuild sweep after a mirror server crash (2 mirrors)")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "files\trebuild time\tmirrors re-homed")
	for _, pt := range r.Rebuilds {
		fmt.Fprintf(tw, "%d\t%.1f ms\t%.1f\n", pt.Files, pt.Ms.Mean(), pt.Rehomed.Mean())
	}
	tw.Flush()
	RenderMetricsCaptures(w, r.Captures)
}
