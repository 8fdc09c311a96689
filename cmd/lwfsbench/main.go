// Command lwfsbench regenerates the tables and figures of the paper's
// evaluation, and the extension experiments grown on top of them, on the
// simulated cluster:
//
//	lwfsbench -experiment <name>     # one experiment; -h lists them
//	lwfsbench -experiment all        # every experiment, in table order
//
// The experiments and their reports live in one table, figures.Experiments;
// this file is flag parsing plus a loop over it.
//
// Every experiment has one size: the paper's (512 MB/process, ≥5 trials,
// 2–16 servers, up to 64 clients for Figures 9–10), or the one
// EXPERIMENTS.md reports for the extensions. A smaller run of one
// experiment is spelled with the sizing flags, which each experiment reads
// its own way (so they do not shrink `all`):
//
//	lwfsbench -experiment fig9 -servers 2,8,16 -clients 1,4,16,48 -trials 2 -mb-per-proc 64
//	lwfsbench -experiment redstorm -clients 1000,10000   # exact-rank counts
//	lwfsbench -experiment replay -clients 1,4,16         # workers
//
// A negative -trials or -mb-per-proc, an -mb-per-proc whose bytes overflow
// an int64, a -servers or -clients entry below 1 or repeated, or a -servers
// entry the dev cluster cannot host (cluster.Spec.CheckServers), is a bad
// command line (exit 2).
//
// -metrics appends per-sweep-point registry snapshot deltas (RPC rates,
// cache hit ratios, queue depths, drain backlog) to the experiments that
// capture them.
//
// The harness observes itself: -cpuprofile and -memprofile bracket the
// experiment loop with pprof profiles (the heap profile is taken after a
// collection, so its in-use view is what the finished experiments still
// hold), and -json logs one line per experiment with its host cost:
//
//	{"experiment":"fig10","wall_s":0.61,"alloc_bytes":69381912,"peak_rss_mb":41.9,"points":64}
//
// wall_s and alloc_bytes are the experiment's own; peak_rss_mb is the
// process's high-water mark when it ended, so in an `all` run it only grows;
// points counts the sweep points that reported.
//
// The output of every experiment is pinned byte for byte by
// TestExperimentGoldens (testdata/golden), and the report blocks
// EXPERIMENTS.md marks with a golden comment are held to those files by
// TestExperimentsMdQuotesGoldens; after a model change,
// `go test ./cmd/lwfsbench -run Goldens -long -update` rewrites both.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lwfs/internal/cluster"
	"lwfs/internal/figures"
)

// cost is one experiment's line in the -json log.
type cost struct {
	Experiment string  `json:"experiment"`
	WallS      float64 `json:"wall_s"`
	AllocBytes uint64  `json:"alloc_bytes"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`
	Points     int     `json:"points"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: 0 on success, 1 when an experiment fails, 2 on a
// bad command line.
func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	help := "experiment to run: all, or one of"
	for _, e := range figures.Experiments {
		names = append(names, e.Name)
		help += fmt.Sprintf("\n%-13s %s", e.Name, e.Doc)
	}

	fs := flag.NewFlagSet("lwfsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "all", help)
		trials     = fs.Int("trials", 0, "trials per point (0 = the experiment's own default (5 for Figures 9–10))")
		servers    = fs.String("servers", "", "comma-separated server counts (default 2,4,8,16)")
		clients    = fs.String("clients", "", "comma-separated client counts (default 1,2,4,8,16,32,48,64)")
		bytesMB    = fs.Int64("mb-per-proc", 0, "MB written per process (0 = paper's 512)")
		verbose    = fs.Bool("v", false, "progress output to stderr")
		plot       = fs.Bool("plot", false, "render ASCII plots of the figure shapes")
		metrics    = fs.Bool("metrics", false, "dump registry snapshot deltas per sweep point")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the experiment loop to `file`")
		memprofile = fs.String("memprofile", "", "write a heap profile, taken after the experiment loop, to `file`")
		jsonlog    = fs.String("json", "", "log one JSON line per experiment (wall_s, alloc_bytes, peak_rss_mb, points) to `file`")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	env := figures.Env{Trials: *trials, BytesPerProc: *bytesMB << 20, Metrics: *metrics, Plot: *plot}
	var err error
	switch {
	case *trials < 0:
		err = fmt.Errorf("-trials %d: want 0 (the experiment's default) or more", *trials)
	case *bytesMB < 0 || *bytesMB > math.MaxInt64>>20:
		err = fmt.Errorf("-mb-per-proc %d: want 0 (the experiment's default) to %d", *bytesMB, int64(math.MaxInt64>>20))
	default:
		if env.Servers, err = parseCounts("-servers", *servers); err == nil {
			env.Clients, err = parseCounts("-clients", *clients)
		}
		for _, n := range env.Servers {
			if err == nil {
				err = cluster.DevCluster().CheckServers(n)
			}
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "lwfsbench: %v\n", err)
		return 2
	}

	var todo []figures.Experiment
	for _, e := range figures.Experiments {
		if *experiment == "all" || *experiment == e.Name {
			todo = append(todo, e)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(stderr, "lwfsbench: unknown experiment %q; want all or one of %s\n",
			*experiment, strings.Join(names, ", "))
		return 2
	}

	// The harness's own files: a failure to write one fails the command,
	// but never hides an experiment's failure.
	code := 0
	check := func(err error) {
		if err != nil && code == 0 {
			fmt.Fprintf(stderr, "lwfsbench: %v\n", err)
			code = 1
		}
	}
	finish, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		check(err)
		return code
	}
	var log *os.File
	if *jsonlog != "" {
		if log, err = os.Create(*jsonlog); err != nil {
			check(err)
			todo = nil // nothing runs, but a started profile is still ended
		}
	}

	for _, e := range todo {
		c := cost{Experiment: e.Name}
		env.Progress = func(format string, args ...interface{}) {
			c.Points++
			if *verbose {
				fmt.Fprintf(stderr, e.Name+": "+format+"\n", args...)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := e.Run(env, stdout); err != nil {
			check(fmt.Errorf("%s: %w", e.Name, err))
			break
		}
		c.WallS = time.Since(start).Seconds()
		runtime.ReadMemStats(&after)
		c.AllocBytes = after.TotalAlloc - before.TotalAlloc
		c.PeakRSSMB = peakRSSMB()
		fmt.Fprintln(stdout)
		if log != nil {
			check(json.NewEncoder(log).Encode(c))
		}
	}

	check(finish())
	if log != nil {
		check(log.Close())
	}
	return code
}

// startProfiles starts the CPU profile, if one is asked for, and returns the
// function that ends it and then writes the heap profile, if one is asked
// for: together they bracket the experiment loop.
func startProfiles(cpu, mem string) (finish func() error, err error) {
	var cpuFile *os.File
	if cpu != "" {
		if cpuFile, err = os.Create(cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if mem == "" {
			return nil
		}
		f, err := os.Create(mem)
		if err != nil {
			return err
		}
		runtime.GC() // in-use is then what the finished experiments still hold
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

// peakRSSMB is getrusage's max resident set of this process (Linux: KiB),
// the figure bench/ reports under the same name.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// parseCounts reads the named flag's comma-separated list of distinct
// counts, each at least 1; empty means unset.
func parseCounts(name, s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("%s: bad count %q, want an integer of at least 1", name, part)
		}
		if slices.Contains(out, n) {
			return nil, fmt.Errorf("%s: count %d given twice, want each at most once", name, n)
		}
		out = append(out, n)
	}
	return out, nil
}
