package figures

import (
	"fmt"
	"io"
	"text/tabwriter"

	"lwfs/internal/authz"
	"lwfs/internal/cluster"
	"lwfs/internal/core"
	"lwfs/internal/lwfspfs"
	"lwfs/internal/netsim"
	"lwfs/internal/sim"
	"lwfs/internal/stats"
	"lwfs/internal/txn"
)

// The stripe sweep (experiment E17): single-large-file bandwidth of one
// lwfspfs file, swept over server count at a 1 MiB stripe unit: the
// driver's own per-unit serial baseline vs the library's coalesced engine
// (internal/stripe), which plans one request per object and fans them out,
// so bandwidth should scale with servers until the client NIC saturates —
// the distribution-policy-as-a-library payoff of Figures 2/3.

const (
	stripeFileMB = 64      // single file size in MB, unless env.BytesPerProc sets it
	stripeUnit   = 1 << 20 // stripe unit in bytes
)

// StripePoint is the measurement at one (server count, stripe unit):
// write/read bandwidth for both paths plus the storage-RPC count of one
// steady-state WriteAt call (the coalescing evidence: units vs objects).
type StripePoint struct {
	Servers int
	Unit    int64

	SerialWrite   stats.Sample // MB/s
	ParallelWrite stats.Sample // MB/s
	SerialRead    stats.Sample // MB/s
	ParallelRead  stats.Sample // MB/s

	SerialRPCs   float64 // storage RPCs per WriteAt (== stripe units)
	ParallelRPCs float64 // storage RPCs per WriteAt (== objects touched)
}

// StripeResult is the whole sweep.
type StripeResult struct {
	FileMB int64
	Trials int
	Points []StripePoint
}

// StripeSweep measures both transfer paths at every storage-server count
// (also the stripe width), on a file of env.BytesPerProc bytes or
// stripeFileMB.
func StripeSweep(env Env) (StripeResult, error) {
	cfg := env.sweepCfg(3)
	res := StripeResult{FileMB: stripeFileMB, Trials: cfg.Trials}
	if env.BytesPerProc != 0 {
		res.FileMB = env.BytesPerProc >> 20
	}
	bytes := res.FileMB << 20
	var points []StripePoint
	for _, servers := range []int{1, 2, 4, 8, 16} {
		points = append(points, StripePoint{Servers: servers, Unit: stripeUnit})
	}
	var err error
	// Each trial measures the serial path, then the parallel engine.
	res.Points, _, err = sweep(cfg, points, func(pt *StripePoint, trial int, _ bool) ([]MetricsCapture, error) {
		if err := stripeRun(pt, trial, bytes, true); err != nil {
			return nil, fmt.Errorf("serial: %w", err)
		}
		return nil, stripeRun(pt, trial, bytes, false)
	})
	return res, err
}

func (pt *StripePoint) label() string {
	return fmt.Sprintf("servers=%d unit=%dKiB", pt.Servers, pt.Unit>>10)
}
func (pt *StripePoint) summary() string {
	return fmt.Sprintf("write %s -> %s MB/s, read %s -> %s MB/s", pt.SerialWrite.String(),
		pt.ParallelWrite.String(), pt.SerialRead.String(), pt.ParallelRead.String())
}

// stripeRun measures one path on a file of the given size — steady-state
// write and read bandwidth and the storage RPCs of one write call — into the
// point's serial or parallel half.
func stripeRun(pt *StripePoint, trial int, bytes int64, serial bool) error {
	write, read, rpcs := &pt.ParallelWrite, &pt.ParallelRead, &pt.ParallelRPCs
	if serial {
		write, read, rpcs = &pt.SerialWrite, &pt.SerialRead, &pt.SerialRPCs
	}
	spec := cluster.DevCluster().WithServers(pt.Servers)
	spec.ComputeNodes = 1
	r := newRig(spec, false)
	// RPC counts come from the metrics registry, not per-server getters:
	// during the measured steady-state window the only served RPCs are the
	// storage data writes (caps cached, metadata write skipped, locks ride
	// their own non-RPC protocol).
	served := func() float64 { return r.cl.Metrics().Sum("rpc.*.served") }
	_, err := r.bench(noRetry, 0, func(p *sim.Proc, c *core.Client) error {
		fs, err := lwfspfs.Format(p, c, "/stripe", lwfspfs.Options{StripeUnit: pt.Unit})
		if err != nil {
			return fmt.Errorf("format: %w", err)
		}
		name := fmt.Sprintf("/big%d", trial)
		f, err := fs.Create(p, name)
		if err != nil {
			return fmt.Errorf("create: %w", err)
		}
		// Priming write allocates every column and sets the size so the
		// measured passes are steady-state (no metadata RPC in them).
		if _, err := f.WriteAt(p, 0, netsim.SyntheticPayload(bytes)); err != nil {
			return fmt.Errorf("prime: %w", err)
		}
		writeAll := func() error { _, err := f.WriteAt(p, 0, netsim.SyntheticPayload(bytes)); return err }
		readAll := func() error { _, err := f.ReadAt(p, 0, bytes); return err }
		if serial {
			// The serial baseline, the one-request-per-unit strawman list I/O
			// is measured against: a core.Client Write or Read per stripe
			// unit, in file order (stripe.Layout.UnitAt). Like File.WriteAt
			// and ReadAt it takes one lock round trip per call, so the
			// columns differ only in how bytes move.
			caps, err := c.GetCaps(p, fs.Container(), authz.OpWrite, authz.OpRead)
			if err != nil {
				return fmt.Errorf("getcaps: %w", err)
			}
			l, locks, payload := f.Layout(), c.Locks(), netsim.SyntheticPayload(bytes)
			perUnit := func(mode txn.LockMode) error {
				if _, err := locks.Lock(p, name, mode); err != nil {
					return err
				}
				defer locks.Unlock(p, name) //nolint:errcheck
				for i := range int((bytes-1)/l.Unit) + 1 {
					rq := l.UnitAt(0, bytes, i)
					var err error
					if mode == txn.Exclusive {
						_, err = c.Write(p, l.Objs[rq.Obj], caps, rq.Off, rq.Gather(0, payload))
					} else {
						_, err = c.Read(p, l.Objs[rq.Obj], caps, rq.Off, rq.Len)
					}
					if err != nil {
						return err
					}
				}
				return nil
			}
			writeAll = func() error { return perUnit(txn.Exclusive) }
			readAll = func() error { return perUnit(txn.Shared) }
			// An untimed pass warms the fresh capabilities: each server's
			// first request under them adds a verify round trip.
			if err := writeAll(); err != nil {
				return fmt.Errorf("warm: %w", err)
			}
		}
		before := served()
		t0 := p.Now()
		if err := writeAll(); err != nil {
			return fmt.Errorf("write: %w", err)
		}
		elapsed := p.Now().Sub(t0)
		*rpcs = served() - before
		write.Add(float64(bytes) / (1 << 20) / elapsed.Seconds())
		t0 = p.Now()
		if err := readAll(); err != nil {
			return fmt.Errorf("read: %w", err)
		}
		read.Add(float64(bytes) / (1 << 20) / p.Now().Sub(t0).Seconds())
		return nil
	})
	return err
}

// Render prints the sweep: the speedup columns are the engine's payoff and
// the RPC columns the coalescing evidence (units sent vs objects touched).
func (r StripeResult) Render(w io.Writer) {
	fmt.Fprintf(w, "# Striped I/O engine: single %d MB file, one client, %d trials\n",
		r.FileMB, r.Trials)
	fmt.Fprintln(w, "# serial = one RPC per stripe unit; parallel = one coalesced request per object, concurrent fan-out")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "servers\tunit\twrite serial\twrite parallel\tspeedup\tread serial\tread parallel\tspeedup\tRPCs/write serial->parallel")
	for _, pt := range r.Points {
		ws, wp := pt.SerialWrite.Mean(), pt.ParallelWrite.Mean()
		rs, rp := pt.SerialRead.Mean(), pt.ParallelRead.Mean()
		speed := func(a, b float64) string {
			if a <= 0 {
				return "-"
			}
			return fmt.Sprintf("%.1fx", b/a)
		}
		fmt.Fprintf(tw, "%d\t%dKiB\t%.0f MB/s\t%.0f MB/s\t%s\t%.0f MB/s\t%.0f MB/s\t%s\t%.0f -> %.0f\n",
			pt.Servers, pt.Unit>>10, ws, wp, speed(ws, wp), rs, rp, speed(rs, rp),
			pt.SerialRPCs, pt.ParallelRPCs)
	}
	tw.Flush()
}
