// Command lwfsbench regenerates the tables and figures of the paper's
// evaluation, and the extension experiments grown on top of them, on the
// simulated cluster:
//
//	lwfsbench -experiment <name>     # one experiment; -h lists them
//	lwfsbench -experiment all        # every experiment, in table order
//
// The experiments, their -quick presets and their reports live in one
// table, figures.Experiments; this file is flag parsing plus a loop over it.
//
// -quick shrinks the sweeps (1–2 trials, fewer points, 64 MB/process) for a
// fast smoke run; the defaults reproduce the paper's parameters (512
// MB/process, ≥5 trials, 2–16 servers, up to 64 clients). -metrics appends
// per-sweep-point registry snapshot deltas (RPC rates, cache hit ratios,
// queue depths, drain backlog) to the experiments that capture them.
//
// The -quick output of every experiment is pinned byte for byte by
// TestExperimentGoldens (testdata/golden; regenerate with
// `go test ./cmd/lwfsbench -run Goldens -long -update`).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"lwfs/internal/figures"
)

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
		trials     = fs.Int("trials", 0, "trials per point (0 = paper default of 5)")
		quick      = fs.Bool("quick", false, "small sweep for a fast smoke run")
		servers    = fs.String("servers", "", "comma-separated server counts (default 2,4,8,16)")
		clients    = fs.String("clients", "", "comma-separated client counts (default 1,2,4,8,16,32,48,64)")
		bytesMB    = fs.Int64("mb-per-proc", 0, "MB written per process (0 = paper's 512)")
		verbose    = fs.Bool("v", false, "progress output to stderr")
		plot       = fs.Bool("plot", false, "render ASCII plots of the figure shapes")
		metrics    = fs.Bool("metrics", false, "dump registry snapshot deltas per sweep point")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	env := figures.Env{Trials: *trials, Quick: *quick, BytesPerProc: *bytesMB << 20, Metrics: *metrics, Plot: *plot}
	var err error
	if env.Servers, err = parseInts(*servers); err == nil {
		env.Clients, err = parseInts(*clients)
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
	for _, e := range todo {
		if *verbose {
			env.Progress = func(format string, args ...interface{}) {
				fmt.Fprintf(stderr, e.Name+": "+format+"\n", args...)
			}
		}
		if err := e.Run(env, stdout); err != nil {
			fmt.Fprintf(stderr, "lwfsbench: %s: %v\n", e.Name, err)
			return 1
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

// parseInts reads a comma-separated list of integers; empty means unset.
func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad int %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
