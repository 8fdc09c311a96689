// Filtering: the paper's §6 "remote processing (e.g., remote filtering)"
// direction — active storage. A climate dataset is sharded over every
// storage server; the analysis wants one number per shard (the count of
// extreme-temperature cells). Shipping the filter *name* to the servers
// scans each shard next to its disk and returns 8 bytes per server;
// shipping the *data* to the client funnels the whole dataset through one
// NIC. The program does both and prints the times and bytes moved.
//
//	go run ./examples/filtering
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"time"

	"lwfs"
	"lwfs/internal/sim"
)

const shardSize = 128 * lwfs.MB

// countExtremes counts bytes above a threshold (and, for synthetic
// payloads, models the same scan by size — a real deployment registers
// real code; the benchmark rig moves virtual data).
func countExtremes(acc []byte, chunk lwfs.Payload) []byte {
	var n uint64
	if len(acc) == 8 {
		n = binary.BigEndian.Uint64(acc)
	}
	for _, b := range chunk.Bytes() {
		if b > 250 {
			n++
		}
	}
	if chunk.Synthetic() {
		n += uint64(chunk.Size / 256) // synthetic stand-in: fixed density
	}
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, n)
	return out
}

func main() {
	spec := lwfs.DevCluster()
	spec.ComputeNodes = 2
	spec = spec.WithServers(8)
	cl := lwfs.NewCluster(spec)
	cl.RegisterUser("clim", "pw")
	sys := cl.DeployLWFS()
	for _, srv := range sys.Servers {
		srv.RegisterFilter("count-extremes", countExtremes)
	}
	c := cl.NewClient(sys, 0)

	cl.Spawn("analysis", func(p *lwfs.Proc) {
		if err := c.Login(p, "clim", "pw"); err != nil {
			log.Fatal(err)
		}
		cid, _ := c.CreateContainer(p)
		caps, _ := c.GetCaps(p, cid, lwfs.AllOps...)

		refs := make([]lwfs.ObjRef, len(sys.Servers))
		for i := range sys.Servers {
			ref, err := c.CreateObject(p, c.Server(i), caps)
			if err != nil {
				log.Fatal(err)
			}
			refs[i] = ref
			if _, err := c.Write(p, ref, caps, 0, lwfs.Synthetic(shardSize)); err != nil {
				log.Fatal(err)
			}
		}
		total := int64(len(refs)) * shardSize

		scan := func(useFilter bool) (time.Duration, uint64) {
			start := p.Now()
			var wg sim.WaitGroup
			wg.Add(len(refs))
			var extremes uint64
			for i := range refs {
				ref := refs[i]
				p.Kernel().Spawn("scan", func(q *lwfs.Proc) {
					defer wg.Done()
					if useFilter {
						out, err := c.Filter(q, ref, caps, 0, shardSize, "count-extremes", "", 64)
						if err != nil {
							log.Fatal(err)
						}
						extremes += binary.BigEndian.Uint64(out)
					} else {
						got, err := c.Read(q, ref, caps, 0, shardSize)
						if err != nil {
							log.Fatal(err)
						}
						extremes += uint64(got.Size / 256) // client-side scan
					}
				})
			}
			wg.Wait(p)
			return p.Now().Sub(start), extremes
		}

		filterTime, n1 := scan(true)
		readTime, n2 := scan(false)
		if n1 != n2 {
			log.Fatalf("answers disagree: %d vs %d", n1, n2)
		}
		fmt.Printf("dataset: %d MB over %d servers; answer: %d extreme cells\n\n",
			total>>20, len(refs), n1)
		fmt.Printf("remote filtering:  %8v   (~%d bytes crossed the network per server)\n", filterTime, 8)
		fmt.Printf("read-everything:   %8v   (%d MB funneled through one client NIC)\n", readTime, total>>20)
		fmt.Printf("\nactive-storage speedup: %.1fx — the scan ran next to %d disks in parallel (§6)\n",
			readTime.Seconds()/filterTime.Seconds(), len(refs))
	})

	if err := cl.Run(); err != nil {
		log.Fatal(err)
	}
}
