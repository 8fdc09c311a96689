package figures

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
	"time"

	"lwfs/internal/cluster"
)

// Checkpoint-interval modeling (experiment E23): how often can a
// machine-size job afford to checkpoint? A sampled Red Storm dump yields
// two costs — the *apparent* dump time t_a (ranks stall until acked) and
// the *durable* time t_d (bytes committed to disk). Young/Daly's first-order
// optimum balances stall cost against rework after a failure:
//
//	τ_opt = sqrt(2 · t_a · M)        (M = system MTBF)
//
// but a staging tier adds a second constraint the classic model misses: a
// new dump cannot usefully start before the previous one is durable, or a
// failure in the overlap window loses both. The drain tail therefore sets
// a floor on the interval:
//
//	τ_floor = t_d − t_a
//
// The effective interval is max(τ_opt, τ_floor), and machine efficiency at
// that interval is ≈ 1 − t_a/τ − τ/(2M). When τ_opt < τ_floor the tier's
// drain, not failure mathematics, dictates checkpoint frequency — buffer
// provisioning has replaced MTBF as the governing constraint.

// CkptIntervalArm is one measured dump configuration.
type CkptIntervalArm struct {
	Staged   bool
	Apparent time.Duration // t_a: ranks resume computing
	Durable  time.Duration // t_d: bytes on disk, manifest committed
}

// CkptIntervalRow is the model evaluated at one (arm, MTBF) point.
type CkptIntervalRow struct {
	Arm        CkptIntervalArm
	MTBF       time.Duration
	TauOpt     time.Duration // Young/Daly sqrt(2·t_a·M)
	TauFloor   time.Duration // drain tail t_d − t_a
	Tau        time.Duration // max of the two
	Efficiency float64       // 1 − t_a/τ − τ/(2M)
	DrainBound bool          // τ_floor governs, not failure math
}

// CkptIntervalResult is the whole experiment.
type CkptIntervalResult struct {
	Opts     RedStormOpts // the measured point, defaults filled in
	Arms     []CkptIntervalArm
	Rows     []CkptIntervalRow
	Captures []MetricsCapture
}

// CkptIntervalRun measures both arms — each one Red Storm point, direct and
// staged, at opts' single exact-rank count (default 2000) — and evaluates
// the interval model at a system MTBF of 1, 4 and 24 hours.
func CkptIntervalRun(opts RedStormOpts) (CkptIntervalResult, error) {
	defList(&opts.Exact, 2000)
	def(&opts.Seed, 23) // E23's fixed seed, as E22 runs on 22
	if len(opts.Exact) != 1 {
		return CkptIntervalResult{}, fmt.Errorf("figures: E23 measures one exact-rank count, got %v", opts.Exact)
	}
	opts.defaults()
	arms, caps, err := sweep(sweepCfg{1, opts.Metrics, opts.Progress}, []CkptIntervalArm{{Staged: false}, {Staged: true}},
		func(arm *CkptIntervalArm, _ int, keep bool) ([]MetricsCapture, error) {
			pt := RedStormPoint{Exact: opts.Exact[0], Staged: arm.Staged}
			caps, err := opts.dump(&pt, 0, keep)
			arm.Apparent, arm.Durable = pt.Apparent, pt.Durable
			return caps, err
		})
	res := CkptIntervalResult{Opts: opts, Captures: caps}
	if err != nil {
		return res, err
	}
	res.Arms = arms
	for _, arm := range arms {
		for _, mtbf := range []time.Duration{time.Hour, 4 * time.Hour, 24 * time.Hour} {
			res.Rows = append(res.Rows, intervalRow(arm, mtbf))
		}
	}
	return res, nil
}

func (arm *CkptIntervalArm) label() string { return fmt.Sprintf("staged=%v", arm.Staged) }
func (arm *CkptIntervalArm) summary() string {
	return fmt.Sprintf("t_a %v, t_d %v", arm.Apparent.Round(time.Millisecond), arm.Durable.Round(time.Millisecond))
}

func intervalRow(arm CkptIntervalArm, mtbf time.Duration) CkptIntervalRow {
	row := CkptIntervalRow{Arm: arm, MTBF: mtbf}
	row.TauOpt = time.Duration(math.Sqrt(2 * float64(arm.Apparent) * float64(mtbf)))
	row.TauFloor = arm.Durable - arm.Apparent
	row.Tau = max(row.TauOpt, row.TauFloor)
	row.DrainBound = row.TauFloor > row.TauOpt
	ta, tau, m := float64(arm.Apparent), float64(row.Tau), float64(mtbf)
	row.Efficiency = 1 - ta/tau - tau/(2*m)
	if row.Efficiency < 0 {
		row.Efficiency = 0
	}
	return row
}

// Render prints the measured arms and the interval table.
func (r CkptIntervalResult) Render(w io.Writer) {
	fmt.Fprintf(w, "# Checkpoint interval (E23): %d-rank job (%d exact), %d MB/rank, %d I/O nodes\n",
		r.Opts.TotalRanks, r.Opts.Exact[0], r.Opts.BytesPerProc>>20, cluster.RedStorm().StorageNodes)
	fmt.Fprintln(w, "# τ_opt = sqrt(2·t_a·MTBF) (Young/Daly); τ_floor = t_d − t_a (previous dump must be durable);")
	fmt.Fprintln(w, "# efficiency ≈ 1 − t_a/τ − τ/(2·MTBF) at τ = max(τ_opt, τ_floor)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "arm\tt_a\tt_d\tMTBF\tτ_opt\tτ_floor\tτ\tefficiency\tgoverned by")
	for _, row := range r.Rows {
		arm := "direct"
		if row.Arm.Staged {
			arm = "staged"
		}
		gov := "failure math"
		if row.DrainBound {
			gov = "drain tail"
		}
		fmt.Fprintf(tw, "%s\t%v\t%v\t%v\t%v\t%v\t%v\t%.4f\t%s\n",
			arm, row.Arm.Apparent.Round(time.Millisecond), row.Arm.Durable.Round(time.Millisecond),
			row.MTBF, row.TauOpt.Round(time.Second), row.TauFloor.Round(time.Millisecond),
			row.Tau.Round(time.Second), row.Efficiency, gov)
	}
	tw.Flush()
	for _, row := range r.Rows {
		if row.DrainBound {
			fmt.Fprintf(w, "# warning: at MTBF %v the staged drain tail (%v) exceeds the Young/Daly optimum (%v) — checkpoint frequency is drain-bound; provision buffers or drain bandwidth, not just MTBF margin\n",
				row.MTBF, row.TauFloor.Round(time.Millisecond), row.TauOpt.Round(time.Second))
			break
		}
	}
	RenderMetricsCaptures(w, r.Captures)
}
