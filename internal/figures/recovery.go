package figures

import (
	"errors"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"lwfs/internal/checkpoint"
	"lwfs/internal/cluster"
	"lwfs/internal/osd"
	"lwfs/internal/sim"
	"lwfs/internal/stats"
)

// The journaled-staging sweep (experiment E16): crash the burst buffer
// mid-drain and measure what the crash costs under each staging mode. A
// memory-only buffer turns the crash into an abort — the whole dump is
// redone by the application. A journaled buffer turns it into bounded
// recovery latency: replay plus re-drain, paid inside the commit tail. The
// sweep varies the journal medium's sync cost (NVRAM- to disk-class) to
// show the trade the journal makes on the healthy path: every staged
// extent pays one journal append + flush before its ack, so a slower
// barrier erodes the tier's apparent-time win.

// RecoveryMedium is one staging mode under test.
type RecoveryMedium struct {
	Name    string
	Journal *osd.DiskParams // journal media calibration; nil = memory-only
}

func journalMedium(name string, sync time.Duration) RecoveryMedium {
	d := osd.BurstJournalParams()
	d.SyncCost = sync
	return RecoveryMedium{Name: name, Journal: &d}
}

// The sweep's fixed script: a small checkpoint drained slowly enough that
// the buffer crash lands mid-drain.
const (
	recoveryProcs        = 4
	recoveryServers      = 2
	recoveryBytesPerProc = 2 << 20
	recoveryDrainBW      = 1 << 20 // per-worker drain throttle, bytes/s: ~2 s per rank, a wide window to crash inside
	recoveryCrashAt      = 100 * time.Millisecond
	recoveryRestartAt    = 200 * time.Millisecond
)

// RecoveryPoint is one medium's measurements.
type RecoveryPoint struct {
	Medium          RecoveryMedium
	HealthyApparent stats.Sample // no-fault checkpoint time as acked, ms
	HealthyDurable  stats.Sample // no-fault commit-inclusive time, ms
	CrashDurable    stats.Sample // commit-inclusive time through the crash, ms (committed trials)
	Recovered       int          // crash trials that committed through recovery
	Aborted         int          // crash trials that rolled back
}

// RecoveryResult is the whole sweep.
type RecoveryResult struct {
	Trials   int
	Points   []RecoveryPoint
	Captures []MetricsCapture // filled when env.Metrics is set
}

// RecoverySweep measures healthy and crashed checkpoint runs per medium:
// memory-only staging, then journals on NVRAM-, SSD- and disk-class media
// (sync barrier 5 µs → 500 µs). With env.Metrics the last trial of each
// medium keeps registry snapshot pairs (healthy and crash phases).
func RecoverySweep(env Env) (RecoveryResult, error) {
	cfg := env.sweepCfg(3)
	points := []RecoveryPoint{
		{Medium: RecoveryMedium{Name: "memory"}},
		{Medium: journalMedium("journal-nvram", 5*time.Microsecond)},
		{Medium: journalMedium("journal-ssd", 25*time.Microsecond)},
		{Medium: journalMedium("journal-disk", 500*time.Microsecond)},
	}
	points, caps, err := sweep(cfg, points, recoveryTrial)
	return RecoveryResult{Trials: cfg.Trials, Points: points, Captures: caps}, err
}

func (pt *RecoveryPoint) label() string { return "medium=" + pt.Medium.Name }
func (pt *RecoveryPoint) summary() string {
	return fmt.Sprintf("healthy durable %s ms, crash %d recovered / %d aborted",
		pt.HealthyDurable.String(), pt.Recovered, pt.Aborted)
}

// recoveryTrial runs the checkpoint twice: healthy, then through the buffer
// crash.
func recoveryTrial(pt *RecoveryPoint, trial int, keep bool) ([]MetricsCapture, error) {
	var caps []MetricsCapture
	for _, crash := range []bool{false, true} {
		mc, err := recoveryRun(pt, trial, crash, keep)
		if err != nil {
			return nil, fmt.Errorf("crash=%v: %w", crash, err)
		}
		mc.Label = fmt.Sprintf("%s crash=%v", pt.label(), crash)
		caps = append(caps, mc)
	}
	return caps, nil
}

func recoveryRun(pt *RecoveryPoint, trial int, crash, keep bool) (MetricsCapture, error) {
	spec := cluster.DevCluster().WithServers(recoveryServers)
	spec.ComputeNodes = recoveryProcs
	spec.BurstNodes = 1
	spec.Burst.DrainBW = recoveryDrainBW
	spec.BurstJournal = pt.Medium.Journal
	r := newRig(spec, keep)
	if crash {
		bb := r.l.Burst[0]
		r.cl.Spawn("chaos", func(p *sim.Proc) {
			p.Sleep(recoveryCrashAt)
			bb.Crash()
			p.Sleep(recoveryRestartAt - recoveryCrashAt)
			if _, err := bb.Restart(p); err != nil {
				panic(fmt.Sprintf("figures: buffer restart: %v", err))
			}
		})
	}
	res, err := checkpoint.SetupLWFS(r.cl, r.l, checkpoint.Config{
		Procs:           recoveryProcs,
		BytesPerProc:    recoveryBytesPerProc,
		Seed:            int64(trial)*104729 + 17,
		DrainTimeout:    300 * time.Millisecond,
		RecoveryTimeout: 120 * time.Second,
	})
	if err != nil {
		return MetricsCapture{}, err
	}
	mc, err := r.run()
	if err != nil {
		return mc, err
	}
	switch {
	case !crash && res.Aborted:
		return mc, errors.New("healthy run aborted")
	case !crash:
		pt.HealthyApparent.Add(float64(res.Elapsed) / float64(time.Millisecond))
		pt.HealthyDurable.Add(float64(res.Durable) / float64(time.Millisecond))
	case res.Aborted:
		pt.Aborted++
	default:
		pt.Recovered++
		pt.CrashDurable.Add(float64(res.Durable) / float64(time.Millisecond))
	}
	return mc, nil
}

// Render prints the sweep: the journal's healthy-path tax (apparent time vs
// the memory row) against its payoff (crash trials that commit instead of
// aborting, and what the recovery detour costs in durable time).
func (r RecoveryResult) Render(w io.Writer) {
	fmt.Fprintf(w, "# Journaled staging under buffer crash: %d-process checkpoint, %d servers, %d MB/process, crash@%v restart@%v, %d trials\n",
		recoveryProcs, recoveryServers, recoveryBytesPerProc>>20, recoveryCrashAt, recoveryRestartAt, r.Trials)
	fmt.Fprintln(w, "# healthy columns: no-fault runs; crash columns: buffer crashed mid-drain and restarted")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "medium\tjournal sync\thealthy apparent (ms)\thealthy durable (ms)\tcrash outcome\tcrash durable (ms)\trecovery cost (ms)")
	for _, pt := range r.Points {
		syncLabel := "-"
		if pt.Medium.Journal != nil {
			syncLabel = pt.Medium.Journal.SyncCost.String()
		}
		outcome := fmt.Sprintf("%d/%d recovered", pt.Recovered, pt.Recovered+pt.Aborted)
		if pt.Recovered == 0 {
			outcome = fmt.Sprintf("%d/%d aborted", pt.Aborted, pt.Recovered+pt.Aborted)
		}
		crashDur, cost := "-", "-"
		if pt.CrashDurable.N() > 0 {
			crashDur = pt.CrashDurable.String()
			cost = fmt.Sprintf("%.1f", pt.CrashDurable.Mean()-pt.HealthyDurable.Mean())
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			pt.Medium.Name, syncLabel, pt.HealthyApparent.String(), pt.HealthyDurable.String(),
			outcome, crashDur, cost)
	}
	tw.Flush()
	RenderMetricsCaptures(w, r.Captures)
}
