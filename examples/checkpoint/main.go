// Checkpoint: the paper's §4 case study, end to end. Runs the same
// checkpoint workload (n processes, 128 MB each by default, on the
// simulated dev cluster) through all three implementations, prints the
// phase breakdown and throughput the paper plots in Figure 9, then
// demonstrates a restart: the LWFS checkpoint is found by name and read
// back.
//
//	go run ./examples/checkpoint [-procs 16] [-mb 128] [-servers 8]
//
// -procs below 1, -mb below 1 or past an int64's bytes, a -servers count
// the dev cluster cannot host (cluster.Spec.CheckServers) and positional
// arguments are a bad command line (exit 2).
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"

	"lwfs"
	"lwfs/internal/checkpoint"
	"lwfs/internal/cluster"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole program: 0 on success, 1 when a run fails, 2 on a bad
// command line.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("checkpoint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	procs := fs.Int("procs", 16, "client processes")
	mb := fs.Int64("mb", 128, "MB written per process")
	servers := fs.Int("servers", 8, "storage servers")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	spec := cluster.DevCluster()
	var err error
	switch {
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected arguments %q", fs.Args())
	case *procs < 1:
		err = fmt.Errorf("-procs %d: want at least 1", *procs)
	case *mb < 1 || *mb > math.MaxInt64>>20:
		err = fmt.Errorf("-mb %d: want 1 to %d", *mb, int64(math.MaxInt64>>20))
	default:
		err = spec.CheckServers(*servers)
	}
	if err != nil {
		fmt.Fprintf(stderr, "checkpoint: %v\n", err)
		return 2
	}

	spec = spec.WithServers(*servers)
	cfg := checkpoint.Config{Procs: *procs, BytesPerProc: *mb << 20, Seed: 1}
	fmt.Fprintf(stdout, "checkpoint: %d processes x %d MB over %d storage servers\n\n", *procs, *mb, *servers)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "implementation\tcreate/open\twrite\tsync\tclose/commit\ttotal\tMB/s")
	for _, impl := range []struct {
		name string
		run  func(cluster.Spec, checkpoint.Config) (checkpoint.Result, error)
	}{
		{"Lustre, one shared file", checkpoint.RunPFSShared},
		{"Lustre, file per process", checkpoint.RunPFSFilePerProcess},
		{"LWFS, object per process", checkpoint.RunLWFS},
	} {
		res, err := impl.run(spec, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "checkpoint: %s: %v\n", impl.name, err)
			return 1
		}
		m := res.MaxTimes
		fmt.Fprintf(tw, "%s\t%v\t%v\t%v\t%v\t%v\t%.0f\n",
			impl.name, m.Create, m.Write, m.Sync, m.Close, res.Elapsed, res.ThroughputMBs())
	}
	tw.Flush()

	fmt.Fprintln(stdout, "\nrestart demo: finding and reading an LWFS checkpoint by name")
	if err := restart(spec, stdout); err != nil {
		fmt.Fprintf(stderr, "checkpoint: restart demo: %v\n", err)
		return 1
	}
	return 0
}

// demoRanks is the restart demo's job size.
const demoRanks = 4

// restart runs a tiny checkpoint with real bytes and reads it back the way
// a restarting application would: resolve the name and read the manifest
// (lwfs.RestoreCheckpoint), then read each rank's object.
func restart(spec cluster.Spec, stdout io.Writer) error {
	spec.ComputeNodes = demoRanks
	cl := lwfs.NewCluster(spec)
	defer cl.Close()
	cl.RegisterUser("app", "pw")
	c := cl.NewClient(cl.DeployLWFS(), 0)
	var demoErr error
	cl.Spawn("restart-demo", func(p *lwfs.Proc) { demoErr = demo(p, c, stdout) })
	if err := cl.Run(); err != nil {
		return err
	}
	return demoErr
}

func demo(p *lwfs.Proc, c *lwfs.Client, stdout io.Writer) error {
	if err := c.Login(p, "app", "pw"); err != nil {
		return err
	}
	cid, err := c.CreateContainer(p)
	if err != nil {
		return err
	}
	caps, err := c.GetCaps(p, cid, lwfs.AllOps...)
	if err != nil {
		return err
	}

	// Checkpoint with real state, transactionally, under the manifest
	// Restore reads: one object per rank, every state the same size.
	tx := c.BeginTxn()
	refs := make([]lwfs.ObjRef, demoRanks)
	var size int64
	for rank := range refs {
		state := fmt.Sprintf("rank %d: iteration=40000 residual=1.2e-9", rank)
		size = int64(len(state))
		if refs[rank], err = c.CreateObjectTxn(p, c.Server(rank), caps, tx); err != nil {
			return err
		}
		if _, err := c.Write(p, refs[rank], caps, 0, lwfs.Bytes([]byte(state))); err != nil {
			return err
		}
	}
	mdRef, err := c.CreateObjectTxn(p, c.Server(0), caps, tx)
	if err != nil {
		return err
	}
	if _, err := c.Write(p, mdRef, caps, 0, lwfs.Bytes(checkpoint.EncodeMetadata(refs, size))); err != nil {
		return err
	}
	if err := c.CreateName(p, "/ckpt-step-40000", mdRef, tx); err != nil {
		return err
	}
	if err := tx.Commit(p); err != nil {
		return err
	}

	// --- restart path ---
	m, err := lwfs.RestoreCheckpoint(p, c, caps, "/ckpt-step-40000")
	if err != nil {
		return err
	}
	for _, ref := range m.Refs {
		state, err := c.Read(p, ref, caps, 0, m.BytesPerProc)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  restored %q\n", state.Data)
	}
	return nil
}
