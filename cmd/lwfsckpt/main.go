// Command lwfsckpt runs a single checkpoint configuration through one of
// the three §4 implementations and prints the phase breakdown, either
// human-readable or as CSV for scripting.
//
//	lwfsckpt -impl lwfs -procs 64 -mb 512 -servers 16
//	lwfsckpt -impl shared -procs 64 -csv
//	lwfsckpt -impl fpp -trials 5
//
// -procs, -trials and -servers below 1, -mb below 1 or past an int64's
// bytes, a -servers count the dev cluster cannot host
// (cluster.Spec.CheckServers) and an unknown -impl are a bad command line
// (exit 2).
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"

	"lwfs/internal/checkpoint"
	"lwfs/internal/cluster"
	"lwfs/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: 0 on success, 1 when a checkpoint fails, 2 on a
// bad command line.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lwfsckpt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		impl    = fs.String("impl", "lwfs", "lwfs|fpp|shared")
		procs   = fs.Int("procs", 64, "client processes")
		mb      = fs.Int64("mb", 512, "MB per process")
		servers = fs.Int("servers", 16, "storage servers")
		trials  = fs.Int("trials", 1, "trials (mean/stddev reported)")
		csv     = fs.Bool("csv", false, "CSV output")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	ckpt := map[string]func(cluster.Spec, checkpoint.Config) (checkpoint.Result, error){
		"lwfs":   checkpoint.RunLWFS,
		"fpp":    checkpoint.RunPFSFilePerProcess,
		"shared": checkpoint.RunPFSShared,
	}[*impl]
	spec := cluster.DevCluster()
	var err error
	switch {
	case ckpt == nil:
		err = fmt.Errorf("unknown -impl %q, want lwfs, fpp or shared", *impl)
	case *procs < 1:
		err = fmt.Errorf("-procs %d: want at least 1", *procs)
	case *trials < 1:
		err = fmt.Errorf("-trials %d: want at least 1", *trials)
	case *mb < 1 || *mb > math.MaxInt64>>20:
		err = fmt.Errorf("-mb %d: want 1 to %d", *mb, int64(math.MaxInt64>>20))
	default:
		err = spec.CheckServers(*servers)
	}
	if err != nil {
		fmt.Fprintf(stderr, "lwfsckpt: %v\n", err)
		return 2
	}

	spec = spec.WithServers(*servers)
	var tput, create, write, syncT, closeT, total stats.Sample
	for trial := 0; trial < *trials; trial++ {
		res, err := ckpt(spec, checkpoint.Config{
			Procs:        *procs,
			BytesPerProc: *mb << 20,
			Seed:         int64(trial) * 31337,
		})
		if err != nil {
			fmt.Fprintf(stderr, "lwfsckpt: %v\n", err)
			return 1
		}
		tput.Add(res.ThroughputMBs())
		create.Add(res.MaxTimes.Create.Seconds() * 1e3)
		write.Add(res.MaxTimes.Write.Seconds() * 1e3)
		syncT.Add(res.MaxTimes.Sync.Seconds() * 1e3)
		closeT.Add(res.MaxTimes.Close.Seconds() * 1e3)
		total.Add(res.Elapsed.Seconds() * 1e3)
	}

	if *csv {
		fmt.Fprintln(stdout, "impl,procs,mb_per_proc,servers,trials,throughput_mbs,throughput_sd,create_ms,write_ms,sync_ms,close_ms,total_ms")
		fmt.Fprintf(stdout, "%s,%d,%d,%d,%d,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f\n",
			*impl, *procs, *mb, *servers, *trials,
			tput.Mean(), tput.StdDev(), create.Mean(), write.Mean(), syncT.Mean(), closeT.Mean(), total.Mean())
		return 0
	}
	fmt.Fprintf(stdout, "checkpoint %s: %d procs x %d MB, %d servers, %d trial(s)\n",
		*impl, *procs, *mb, *servers, *trials)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "throughput\t%s MB/s\n", tput.String())
	fmt.Fprintf(tw, "create/open (max over procs)\t%.1f ms\n", create.Mean())
	fmt.Fprintf(tw, "write\t%.1f ms\n", write.Mean())
	fmt.Fprintf(tw, "sync\t%.1f ms\n", syncT.Mean())
	fmt.Fprintf(tw, "close/commit\t%.1f ms\n", closeT.Mean())
	fmt.Fprintf(tw, "total (max over procs)\t%.1f ms\n", total.Mean())
	tw.Flush()
	return 0
}
