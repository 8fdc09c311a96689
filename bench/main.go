// Command bench is the repository's benchmark: five workloads that each
// stress different layers of the simulated LWFS stack, measured on two
// clocks (virtual LWFS time and simulator host time), with a traced run, a
// set of layer probes and an outside-in layer ladder. See README.md.
//
// The driver runs
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//
// and reads the last line of standard output. People run
//
//	go run ./bench -all                  every workload, tracing off
//	go run ./bench -all -trace 1         the traced pass
//	go run ./bench -all -repeat 2        noise self-check
//	go run ./bench -probes               probes and ladder only
//	go run ./bench -compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

const (
	defaultSeconds = 20          // BENCHMARK.json run_seconds
	spanDir        = "bench/out" // where a traced repetition writes <workload>.spans.json, relative to the checkout's root
)

func main() {
	var (
		wname   = flag.String("workload", "", "run one workload and print its result as the last line")
		seed    = flag.Int64("seed", 1, "workload seed: same seed, same inputs")
		seconds = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, probes and ladder, per-layer metrics")
		all     = flag.Bool("all", false, "run every workload, each in a fresh process")
		repeat  = flag.Int("repeat", 1, "with -all: run the set this many times and check the runs against each other")
		doProbe = flag.Bool("probes", false, "run the layer probes and the ladder only")
		compare = flag.Bool("compare", false, "compare two -json logs: bench -compare A.jsonl B.jsonl")
		jsonOut = flag.String("json", "", "with -all: append one line per workload run to this file")
		repOnly = flag.Bool("rep", false, "internal: run one repetition of -workload and print it as JSON")
	)
	flag.Parse()
	// All load comes from this one process; simulated clients are processes
	// of the same kernel. More than four host threads only adds noise.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	var err error
	switch {
	case *repOnly:
		err = oneRep(os.Stdout, *wname, params{Seed: *seed, Traced: *traced != 0})
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: bench -compare A.jsonl B.jsonl")
			break
		}
		err = compareLogs(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *doProbe:
		err = printProbes(os.Stdout)
	case *all:
		err = runAll(os.Stdout, *seed, *seconds, *traced != 0, *repeat, *jsonOut)
	case *wname != "":
		err = runOne(os.Stdout, *wname, *seed, *seconds, *traced != 0)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// oneRep is the child side of childRep: one repetition in this process,
// printed as one JSON object; a traced one also writes its spans.
func oneRep(w io.Writer, name string, par params) error {
	wl, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	r, err := localRep(wl, par)
	if err != nil {
		return err
	}
	if par.Traced {
		if err := writeSpans(spanDir, name, r.Spans); err != nil {
			return err
		}
	}
	return json.NewEncoder(w).Encode(r)
}

// childRep runs one repetition in a fresh process of this binary, waits for
// it to end, and decodes the repetition it printed.
func childRep(w workload, par params) (rep, error) {
	var r rep
	self, err := os.Executable()
	if err != nil {
		return r, err
	}
	args := []string{"-rep", "-workload", w.Name, "-seed", fmt.Sprint(par.Seed)}
	if par.Traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return r, fmt.Errorf("repetition process: %w", err)
	}
	return r, json.Unmarshal(out, &r)
}

// runOne is the driver's entry: one workload, one seed; every metric by
// name with its unit, then the result object as the last line.
func runOne(w io.Writer, name string, seed int64, seconds float64, traced bool) error {
	wl, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	res, err := runWorkload(childRep, wl, seed, seconds, traced, false)
	if err != nil {
		return err
	}
	printResult(w, res)
	line, err := driverLine(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, line)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations or checks failed", name, res.Failed, res.Attempted)
	}
	return nil
}

func runWorkload(run repFunc, wl workload, seed int64, seconds float64, traced, tiny bool) (result, error) {
	if traced {
		return runTraced(run, wl, seed, seconds, tiny)
	}
	return runUntraced(run, wl, seed, seconds, tiny)
}

func printResult(w io.Writer, res result) {
	fmt.Fprintf(w, "# %s seed=%d traced=%v reps=%d attempted=%d failed=%d GOMAXPROCS=%d\n",
		res.Workload, res.Seed, res.Traced, res.Reps, res.Attempted, res.Failed, runtime.GOMAXPROCS(0))
	for _, n := range res.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-40s %18.6g %s\n", d.Name, res.Metrics[d.Name], d.Unit)
	}
	if res.Traced {
		return
	}
	// The workload-specific end-to-end values this run produced (the
	// driver gets them with the per-layer set).
	for _, d := range perLayer {
		if v, ok := res.Metrics[d.Name]; ok && d.Source == srcE2E {
			fmt.Fprintf(w, "%-40s %18.6g %s\n", d.Name, v, d.Unit)
		}
	}
}

// driverLine renders the result in the shape the driver reads: exactly the
// keys correct, attempted, failed, metrics; each value with all its digits.
func driverLine(res result) (string, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	ms := map[string]metric{}
	for _, d := range defs {
		ms[d.Name] = metric{Value: res.Metrics[d.Name], Unit: d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, ms})
	return string(line), err
}

// runAll runs every workload (each repetition in a process of its own, so
// peak_rss_mb is per workload) and prints every metric by name with its
// unit. With repeat > 1 it is the noise self-check: the sets are compared
// metric by metric.
func runAll(w io.Writer, seed int64, seconds float64, traced bool, repeat int, jsonOut string) error {
	printHostFacts(w)
	sets := make([]map[string]result, repeat)
	failed := 0
	for i := range sets {
		sets[i] = map[string]result{}
		for _, wl := range workloads {
			res, err := runWorkload(childRep, wl, seed, seconds, traced, false)
			if err != nil {
				return err
			}
			printResult(w, res)
			if !res.Correct {
				failed++
			}
			sets[i][wl.Name] = res
			if jsonOut != "" {
				if err := appendJSON(jsonOut, res); err != nil {
					return err
				}
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d workload run(s) had failed operations or checks", failed)
	}
	if repeat > 1 {
		return checkRepeats(w, sets)
	}
	return nil
}

func appendJSON(path string, res result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printHostFacts prints what explains noise.
func printHostFacts(w io.Writer) {
	load := "unknown"
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		load = strings.TrimSpace(string(b))
	}
	fmt.Fprintf(w, "# host: nproc=%d GOMAXPROCS=%d %s %s/%s loadavg=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, load)
}

// checkRepeats compares repeated sets of the same code. Host metrics must
// agree within their own bound; exact ones (virtual time, counts) must be
// bit-identical.
func checkRepeats(w io.Writer, sets []map[string]result) error {
	bad := 0
	for _, wl := range workloads {
		first := sets[0][wl.Name]
		names := sortedKeys(first.Metrics)
		for _, name := range names {
			d, _ := defOf(name)
			for i := 1; i < len(sets); i++ {
				a, b := first.Metrics[name], sets[i][wl.Name].Metrics[name]
				rel := 0.0
				if a != 0 {
					rel = (b - a) / a
				}
				verdict := "ok"
				switch {
				case d.Exact && a != b:
					verdict = "DIFFERS (exact metric)"
					bad++
				case !d.Exact && d.Bound > 0 && math.Abs(rel) > d.Bound:
					verdict = fmt.Sprintf("DIFFERS (bound %.0f%%)", d.Bound*100)
					bad++
				}
				fmt.Fprintf(w, "repeat %-24s %-32s run0=%-14.6g run%d=%-14.6g %+7.2f%% %s\n",
					wl.Name, name, a, i, b, rel*100, verdict)
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("noise self-check: %d metric(s) differ between repeated runs of the same code", bad)
	}
	return nil
}

// printProbes runs the probes and the ladder and prints both.
func printProbes(w io.Writer) error {
	printHostFacts(w)
	vals, err := runProbes(false)
	if err != nil {
		return err
	}
	for _, name := range sortedKeys(vals) {
		d, _ := defOf(name)
		fmt.Fprintf(w, "%-40s %18.6g %s\n", name, vals[name], d.Unit)
	}
	lad, err := runLadder()
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	lad.print(w)
	return nil
}
