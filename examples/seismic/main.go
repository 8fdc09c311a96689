// Seismic: application-controlled data distribution, the motivation the
// paper opens with (§1: seismic imaging is one of the data-intensive codes
// whose "data-distribution policies match the application's access
// patterns", Oldfield/Womble/Ober reference [27]).
//
// A marine seismic survey records, for every SHOT (source firing), one
// trace per OFFSET (receiver distance). Processing reads the same data two
// ways:
//
//   - shot gathers  (all offsets of one shot)   — used by migration
//   - offset gathers (one offset of every shot) — used by velocity analysis
//
// A general-purpose file system forces one layout for both. Because the
// LWFS core imposes *no* distribution policy, this program stores the
// survey twice — shot-major and offset-major — each layout putting its
// gather contiguous on a single server, then times both access patterns
// against both layouts. The matched layout wins by roughly the ratio of
// sequential to strided access, which is the paper's point: the library
// owning placement beats one-size-fits-all.
//
//	go run ./examples/seismic
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"
	"time"

	"lwfs"
	"lwfs/internal/trace"
)

const (
	shots     = 32
	offsets   = 16
	traceSize = int64(256) << 10 // 256 KiB per trace
)

func main() {
	traceOut := flag.String("trace", "", "record the survey's I/O as a replayable trace at this path")
	flag.Parse()
	if err := run(*traceOut); err != nil {
		log.Fatal(err)
	}
}

// run runs the survey; with traceOut set, it also writes the recorded I/O
// there as a trace file.
func run(traceOut string) error {
	spec := lwfs.DevCluster()
	spec.ComputeNodes = 2
	spec = spec.WithServers(8)
	cl := lwfs.NewCluster(spec)
	cl.RegisterUser("geo", "pw")
	sys := cl.DeployLWFS()
	c := cl.NewClient(sys, 0)

	// With -trace, every survey operation is also logged as a trace event
	// against logical per-gather files (one stream: the survey process).
	// The object writes are synthetic (seed 0), so the trace carries the
	// shape of the workload — sizes, offsets, orderings — without payloads.
	var rec *trace.Recorder
	if traceOut != "" {
		rec = trace.NewRecorder()
	}
	recOp := func(p *lwfs.Proc, op trace.Op, path string, off, n int64) {
		if rec == nil {
			return
		}
		rec.Add(trace.Event{T: p.Now(), Op: op, Path: path, Off: off, Len: n})
	}
	shotPath := func(s int) string { return fmt.Sprintf("/shot/s%02d.dat", s) }
	offPath := func(o int) string { return fmt.Sprintf("/off/o%02d.dat", o) }
	redistPath := func(o int) string { return fmt.Sprintf("/redist/o%02d.dat", o) }

	cl.Spawn("survey", func(p *lwfs.Proc) {
		if err := c.Login(p, "geo", "pw"); err != nil {
			log.Fatal(err)
		}
		cid, _ := c.CreateContainer(p)
		caps, err := c.GetCaps(p, cid, lwfs.AllOps...)
		if err != nil {
			log.Fatal(err)
		}

		recOp(p, trace.OpMkdir, "/shot", 0, 0)
		recOp(p, trace.OpMkdir, "/off", 0, 0)
		recOp(p, trace.OpMkdir, "/redist", 0, 0)

		// Layout A (shot-major): one object per shot, all its offsets
		// contiguous; shots round-robin over servers.
		shotObjs := make([]lwfs.ObjRef, shots)
		for s := 0; s < shots; s++ {
			ref, err := c.CreateObject(p, c.Server(s), caps)
			if err != nil {
				log.Fatal(err)
			}
			shotObjs[s] = ref
			recOp(p, trace.OpCreate, shotPath(s), 0, 0)
			if _, err := c.Write(p, ref, caps, 0, lwfs.Synthetic(traceSize*int64(offsets))); err != nil {
				log.Fatal(err)
			}
			recOp(p, trace.OpWrite, shotPath(s), 0, traceSize*int64(offsets))
			recOp(p, trace.OpClose, shotPath(s), 0, 0)
		}
		// Layout B (offset-major): one object per offset class.
		offObjs := make([]lwfs.ObjRef, offsets)
		for o := 0; o < offsets; o++ {
			ref, err := c.CreateObject(p, c.Server(o), caps)
			if err != nil {
				log.Fatal(err)
			}
			offObjs[o] = ref
			recOp(p, trace.OpCreate, offPath(o), 0, 0)
			if _, err := c.Write(p, ref, caps, 0, lwfs.Synthetic(traceSize*int64(shots))); err != nil {
				log.Fatal(err)
			}
			recOp(p, trace.OpWrite, offPath(o), 0, traceSize*int64(shots))
			recOp(p, trace.OpClose, offPath(o), 0, 0)
		}

		// Access pattern 1: read one full shot gather.
		readShotFromShotMajor := timeIt(p, func() {
			recOp(p, trace.OpOpen, shotPath(7), 0, 0)
			mustRead(p, c, shotObjs[7], caps, 0, traceSize*int64(offsets))
			recOp(p, trace.OpRead, shotPath(7), 0, traceSize*int64(offsets))
			recOp(p, trace.OpClose, shotPath(7), 0, 0)
		})
		readShotFromOffsetMajor := timeIt(p, func() {
			for o := 0; o < offsets; o++ {
				recOp(p, trace.OpOpen, offPath(o), 0, 0)
				mustRead(p, c, offObjs[o], caps, int64(7)*traceSize, traceSize)
				recOp(p, trace.OpRead, offPath(o), int64(7)*traceSize, traceSize)
				recOp(p, trace.OpClose, offPath(o), 0, 0)
			}
		})

		// Access pattern 2: read one full offset gather.
		readOffsetFromOffsetMajor := timeIt(p, func() {
			recOp(p, trace.OpOpen, offPath(3), 0, 0)
			mustRead(p, c, offObjs[3], caps, 0, traceSize*int64(shots))
			recOp(p, trace.OpRead, offPath(3), 0, traceSize*int64(shots))
			recOp(p, trace.OpClose, offPath(3), 0, 0)
		})
		readOffsetFromShotMajor := timeIt(p, func() {
			for s := 0; s < shots; s++ {
				recOp(p, trace.OpOpen, shotPath(s), 0, 0)
				mustRead(p, c, shotObjs[s], caps, int64(3)*traceSize, traceSize)
				recOp(p, trace.OpRead, shotPath(s), int64(3)*traceSize, traceSize)
				recOp(p, trace.OpClose, shotPath(s), 0, 0)
			}
		})

		fmt.Printf("seismic survey: %d shots x %d offsets, %d KiB traces, 8 storage servers\n\n",
			shots, offsets, traceSize>>10)
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "access pattern\tshot-major layout\toffset-major layout\tmatched layout speedup")
		fmt.Fprintf(tw, "shot gather (migration)\t%v\t%v\t%.1fx\n",
			readShotFromShotMajor, readShotFromOffsetMajor,
			readShotFromOffsetMajor.Seconds()/readShotFromShotMajor.Seconds())
		fmt.Fprintf(tw, "offset gather (velocity analysis)\t%v\t%v\t%.1fx\n",
			readOffsetFromShotMajor, readOffsetFromOffsetMajor,
			readOffsetFromShotMajor.Seconds()/readOffsetFromOffsetMajor.Seconds())
		tw.Flush()
		fmt.Println("\nthe LWFS core dictates no layout: the application library owns placement,")
		fmt.Println("so each processing stage reads the layout built for it (paper §1, §3.1.1).")

		// Redistribution (§3.1.1: "distribution and redistribution
		// schemes"): rebuild the offset-major layout from the shot-major
		// one, server-to-server — third-party transfers never touch this
		// client's NIC.
		redistObjs := make([]lwfs.ObjRef, offsets)
		for o := range redistObjs {
			ref, err := c.CreateObject(p, c.Server(o+3), caps)
			if err != nil {
				log.Fatal(err)
			}
			redistObjs[o] = ref
			recOp(p, trace.OpCreate, redistPath(o), 0, 0)
		}
		redistStart := p.Now()
		for o := 0; o < offsets; o++ {
			for s := 0; s < shots; s++ {
				if _, err := c.Copy(p, redistObjs[o], caps, int64(s)*traceSize,
					shotObjs[s], caps, int64(o)*traceSize, traceSize); err != nil {
					log.Fatal(err)
				}
				// A third-party copy replays as a read+write pair: the
				// facade has no server-to-server transfer, so the replayed
				// bytes cross the client — the trace still preserves the
				// redistribution's access pattern.
				recOp(p, trace.OpRead, shotPath(s), int64(o)*traceSize, traceSize)
				recOp(p, trace.OpWrite, redistPath(o), int64(s)*traceSize, traceSize)
			}
			recOp(p, trace.OpClose, redistPath(o), 0, 0)
		}
		fmt.Printf("\nredistributed %d MB shot-major -> offset-major via third-party copies in %v\n",
			int64(shots)*int64(offsets)*traceSize>>20, p.Now().Sub(redistStart))
	})

	if err := cl.Run(); err != nil {
		return err
	}

	if rec != nil {
		if err := rec.WriteFile(traceOut); err != nil {
			return err
		}
		fmt.Printf("recorded %d I/O events to %s\n", rec.Len(), traceOut)
	}
	return nil
}

func mustRead(p *lwfs.Proc, c *lwfs.Client, ref lwfs.ObjRef, caps lwfs.CapSet, off, n int64) {
	if _, err := c.Read(p, ref, caps, off, n); err != nil {
		log.Fatalf("read: %v", err)
	}
}

func timeIt(p *lwfs.Proc, fn func()) time.Duration {
	start := p.Now()
	fn()
	return p.Now().Sub(start)
}
