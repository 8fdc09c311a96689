package figures

import (
	"fmt"
	"io"
	"time"

	"lwfs/internal/stats"
)

// Env is the lwfsbench command line, parsed: what an experiment may read to
// size its sweep. Zero values mean "the experiment's default", the one size
// EXPERIMENTS.md reports; a smaller run sets these explicitly.
type Env struct {
	Trials       int   // trials per point
	Servers      []int // storage-server counts (Figures 9 and 10)
	Clients      []int // client counts; exact ranks or workers where those are the x axis
	BytesPerProc int64 // bytes written per process (file size for the stripe sweep)
	Metrics      bool  // append registry snapshot deltas per sweep point
	Plot         bool  // append ASCII plots of the figure shapes
	Progress     func(format string, args ...interface{})
}

// Experiment is one lwfsbench experiment: Run sizes the sweep from env, runs
// it and renders the report.
type Experiment struct {
	Name string
	Doc  string
	Run  func(env Env, w io.Writer) error
}

// Experiments is every experiment lwfsbench knows, in the order `all` runs
// them. The flag help, the unknown-name error, the golden test and the docs
// all read this table; EXPERIMENTS.md holds the paper-vs-measured record.
var Experiments = []Experiment{
	{"table1", "Table 1: compute and I/O nodes of the DOE MPPs", func(_ Env, w io.Writer) error {
		Table1Render(w)
		return nil
	}},
	{"table2", "Table 2: Red Storm parameters vs the simulated fabric and RAID", func(_ Env, w io.Writer) error {
		res, err := Table2()
		return render(w, res, err)
	}},
	{"fig9", "Figure 9: checkpoint throughput, all three panels", func(e Env, w io.Writer) error {
		o := Fig9Opts{Servers: e.Servers, Clients: e.Clients, Trials: e.Trials, BytesPerProc: e.BytesPerProc, Progress: e.Progress}
		for _, im := range []Impl{ImplPFSFile, ImplPFSShared, ImplLWFS} {
			res, err := Fig9(im, o)
			if err != nil {
				return err
			}
			RenderSeries(w, fmt.Sprintf("Figure 9: checkpoint throughput, %s", im), "clients", "MB/s", res.Series)
			if e.Plot {
				fmt.Fprintln(w)
				stats.AsciiPlot(w, fmt.Sprintf("Figure 9 (%s)", im), "clients", "MB/s", res.Series, false)
			}
			fmt.Fprintln(w)
		}
		return nil
	}},
	{"fig10", "Figure 10 a/b/c: object vs file creation throughput", func(e Env, w io.Writer) error {
		o := Fig10Opts{Servers: e.Servers, Clients: e.Clients, Trials: e.Trials, Progress: e.Progress}
		lustre, err := Fig10("lustre", o)
		if err != nil {
			return err
		}
		lwfs, err := Fig10("lwfs", o)
		if err != nil {
			return err
		}
		// Panel (a): the largest-server-count series of both systems.
		a, b := lustre.Series[len(lustre.Series)-1], lwfs.Series[len(lwfs.Series)-1]
		a.Name, b.Name = "Lustre", "LWFS"
		RenderSeries(w, "Figure 10a: LWFS object creation vs Lustre file creation (log scale in the paper)",
			"clients", "ops/s", []stats.Series{a, b})
		fmt.Fprintln(w)
		RenderSeries(w, "Figure 10b: Lustre file creation", "clients", "ops/s", lustre.Series)
		fmt.Fprintln(w)
		RenderSeries(w, "Figure 10c: LWFS object creation", "clients", "ops/s", lwfs.Series)
		if e.Plot {
			fmt.Fprintln(w)
			stats.AsciiPlot(w, "Figure 10a (log y)", "clients", "ops/s", []stats.Series{a, b}, true)
		}
		return nil
	}},
	{"petaflop", "§4 petaflop scaling projection", func(_ Env, w io.Writer) error {
		res, err := PetaflopProjection()
		return render(w, res, err)
	}},
	{"security", "§3.1 security protocol microbenchmarks", func(_ Env, w io.Writer) error {
		res, err := Security()
		return render(w, res, err)
	}},
	{"filtering", "§6 remote filtering: server-side filters vs read-everything", func(_ Env, w io.Writer) error {
		return versus(w, "# Remote filtering (§6): 1 GiB sharded over 8 servers",
			"server-side filters", "read-everything", ActiveStorageScan)
	}},
	{"faults", "E14: lossy-fabric degradation sweep", report(FaultSweep)},
	{"burst", "E15: burst-tier apparent vs durable sweep", report(BurstSweep)},
	{"recovery", "E16: journaled staging under buffer crash", report(RecoverySweep)},
	{"stripe", "E17: striped-engine single-file bandwidth", report(StripeSweep)},
	{"rebuild", "E19: redundancy cost, degraded reads, online rebuild", report(RebuildSweep)},
	{"meta", "E21: replicated-metadata cost and availability", report(MetaSweep)},
	{"qos", "E20: multi-tenant fair share and circuit breaker", report(QoSSweep)},
	{"redstorm", "E22: sampled 100k-rank Red Storm checkpoint, direct vs staged", func(e Env, w io.Writer) error {
		res, err := RedStormSweep(RedStormOpts{Exact: e.Clients, BytesPerProc: e.BytesPerProc, Progress: e.Progress, Metrics: e.Metrics})
		return render(w, res, err)
	}},
	{"ckptinterval", "E23: apparent vs durable dump time -> affordable checkpoint interval", func(e Env, w io.Writer) error {
		res, err := CkptIntervalRun(RedStormOpts{BytesPerProc: e.BytesPerProc, Progress: e.Progress, Metrics: e.Metrics})
		return render(w, res, err)
	}},
	{"replay", "E24: recorded workload traces replayed through the fs.FS facade", report(ReplaySweep)},
	{"collective", "§6 collective I/O: two-phase aggregation vs independent writes", func(_ Env, w io.Writer) error {
		return versus(w, "# Collective I/O (§6): 8 ranks, 512 interleaved 64 KiB records",
			"two-phase collective", "independent writes", CollectiveVsIndependent)
	}},
}

// render prints a finished experiment's report, or passes its error on.
func render(w io.Writer, res interface{ Render(io.Writer) }, err error) error {
	if err == nil {
		res.Render(w)
	}
	return err
}

// report is the Run of an experiment whose driver sizes itself from env.
func report[R interface{ Render(io.Writer) }](driver func(Env) (R, error)) func(Env, io.Writer) error {
	return func(e Env, w io.Writer) error {
		res, err := driver(e)
		return render(w, res, err)
	}
}

// versus reports a §6 extension experiment: measure's virtual time with its
// technique on against the same work with it off.
func versus(w io.Writer, title, on, off string, measure func(bool) (time.Duration, error)) error {
	with, err := measure(true)
	if err != nil {
		return err
	}
	without, err := measure(false)
	if err != nil {
		return err
	}
	col := len(on) + 2
	fmt.Fprintf(w, "%s\n%-*s%v\n%-*s%v\n%-*s%.1fx\n", title,
		col, on, with, col, off, without, col, "speedup", without.Seconds()/with.Seconds())
	return nil
}
