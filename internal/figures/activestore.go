package figures

import (
	"encoding/binary"
	"fmt"
	"time"

	"lwfs/internal/cluster"
	"lwfs/internal/core"
	"lwfs/internal/netsim"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/stripe"
)

// ActiveStorageScan measures the §6 remote-filtering experiment: a 1 GiB
// dataset sharded over 8 storage servers, scanned either by server-side
// filters (useFilter=true; only 8 bytes per server cross the network) or
// by reading every byte back to one client. It returns the scan's
// virtual-time duration.
func ActiveStorageScan(useFilter bool) (time.Duration, error) {
	const shard = 128 << 20
	spec := cluster.DevCluster().WithServers(8)
	spec.ComputeNodes = 2
	r := newRig(spec, false)
	count := func(acc []byte, chunk netsim.Payload) []byte {
		var n uint64
		if len(acc) == 8 {
			n = binary.BigEndian.Uint64(acc)
		}
		n += uint64(chunk.Size)
		out := make([]byte, 8)
		binary.BigEndian.PutUint64(out, n)
		return out
	}
	for _, srv := range r.l.Servers {
		srv.RegisterFilter("count", count)
	}
	var elapsed time.Duration
	_, err := r.bench(noRetry, 0, func(p *sim.Proc, c *core.Client) error {
		caps, err := allCaps(p, c)
		if err != nil {
			return err
		}
		refs := make([]storage.ObjRef, len(r.l.Servers))
		for i := range refs {
			if refs[i], err = c.CreateObject(p, c.Server(i), caps); err != nil {
				return fmt.Errorf("create: %w", err)
			}
			if _, err := c.Write(p, refs[i], caps, 0, netsim.SyntheticPayload(shard)); err != nil {
				return fmt.Errorf("write: %w", err)
			}
		}
		start := p.Now()
		err = stripe.FanOut(p, "scan", len(refs), len(refs), func(q *sim.Proc, i int) error {
			if useFilter {
				_, err := c.Filter(q, refs[i], caps, 0, shard, "count", "", 64)
				return err
			}
			_, err := c.Read(q, refs[i], caps, 0, shard)
			return err
		})
		elapsed = p.Now().Sub(start)
		return err
	})
	return elapsed, err
}
