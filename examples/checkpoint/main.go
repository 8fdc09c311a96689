// Checkpoint: the paper's §4 case study, end to end. Runs the same
// checkpoint workload (n processes, 512 MB each, on the simulated
// dev cluster) through all three implementations, prints the phase
// breakdown and throughput the paper plots in Figure 9, then demonstrates
// a restart: the LWFS checkpoint is found by name and read back.
//
//	go run ./examples/checkpoint [-procs 16] [-mb 128] [-servers 8]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"lwfs"
	"lwfs/internal/checkpoint"
	"lwfs/internal/cluster"
)

func main() {
	procs := flag.Int("procs", 16, "client processes")
	mb := flag.Int64("mb", 128, "MB written per process")
	servers := flag.Int("servers", 8, "storage servers")
	flag.Parse()

	spec := cluster.DevCluster().WithServers(*servers)
	cfg := checkpoint.Config{Procs: *procs, BytesPerProc: *mb << 20, Seed: 1}

	type row struct {
		name string
		res  checkpoint.Result
	}
	var rows []row
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
			log.Fatalf("%s: %v", impl.name, err)
		}
		rows = append(rows, row{impl.name, res})
	}

	fmt.Printf("checkpoint: %d processes x %d MB over %d storage servers\n\n", *procs, *mb, *servers)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "implementation\tcreate/open\twrite\tsync\tclose/commit\ttotal\tMB/s")
	for _, r := range rows {
		m := r.res.MaxTimes
		fmt.Fprintf(tw, "%s\t%v\t%v\t%v\t%v\t%v\t%.0f\n",
			r.name, m.Create, m.Write, m.Sync, m.Close, r.res.Elapsed, r.res.ThroughputMBs())
	}
	tw.Flush()

	fmt.Println("\nrestart demo: finding and reading an LWFS checkpoint by name")
	restart(spec)
}

// restart runs a tiny checkpoint with real bytes and reads it back the way
// a restarting application would: resolve the name, read the metadata
// object, then read each rank's object.
func restart(spec cluster.Spec) {
	spec.ComputeNodes = 4
	cl := lwfs.NewCluster(spec)
	cl.RegisterUser("app", "pw")
	sys := cl.DeployLWFS()
	c := cl.NewClient(sys, 0)
	cl.Spawn("restart-demo", func(p *lwfs.Proc) {
		if err := c.Login(p, "app", "pw"); err != nil {
			log.Fatal(err)
		}
		cid, _ := c.CreateContainer(p)
		caps, _ := c.GetCaps(p, cid, lwfs.AllOps...)

		// Checkpoint with real state, transactionally.
		tx := c.BeginTxn()
		var md string
		for rank := 0; rank < 4; rank++ {
			ref, err := c.CreateObjectTxn(p, c.Server(rank), caps, tx)
			if err != nil {
				log.Fatal(err)
			}
			state := fmt.Sprintf("rank %d: iteration=40000 residual=1.2e-9", rank)
			if _, err := c.Write(p, ref, caps, 0, lwfs.Bytes([]byte(state))); err != nil {
				log.Fatal(err)
			}
			md += fmt.Sprintf("%d %d %d %d\n", ref.Node, ref.Port, ref.ID, len(state))
		}
		mdRef, err := c.CreateObjectTxn(p, c.Server(0), caps, tx)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := c.Write(p, mdRef, caps, 0, lwfs.Bytes([]byte(md))); err != nil {
			log.Fatal(err)
		}
		if err := c.CreateName(p, "/ckpt-step-40000", mdRef, tx); err != nil {
			log.Fatal(err)
		}
		if err := tx.Commit(p); err != nil {
			log.Fatal(err)
		}

		// --- restart path ---
		entry, err := c.Lookup(p, "/ckpt-step-40000")
		if err != nil {
			log.Fatal(err)
		}
		meta, err := c.Read(p, entry.Refs[0], caps, 0, 4096)
		if err != nil {
			log.Fatal(err)
		}
		var node, port, id, size int
		rest := string(meta.Data[:len(md)])
		for rank := 0; rank < 4; rank++ {
			if _, err := fmt.Sscanf(rest, "%d %d %d %d\n", &node, &port, &id, &size); err != nil {
				log.Fatal(err)
			}
			// consume one line
			for i, ch := range rest {
				if ch == '\n' {
					rest = rest[i+1:]
					break
				}
			}
			ref := lwfs.NewObjRef(node, port, uint64(id))
			state, err := c.Read(p, ref, caps, 0, int64(size))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  restored %q\n", state.Data)
		}
	})
	if err := cl.Run(); err != nil {
		log.Fatal(err)
	}
}
