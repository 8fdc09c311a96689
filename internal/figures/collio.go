package figures

import (
	"time"

	"lwfs/internal/cluster"
	"lwfs/internal/collio"
	"lwfs/internal/core"
	"lwfs/internal/netsim"
	"lwfs/internal/sim"
	"lwfs/internal/stripe"
)

// CollectiveVsIndependent measures the §6 collective-I/O experiment: 8
// ranks write 512 interleaved 64 KiB records of a global array, either via
// two-phase collective aggregation or as independent small writes. It
// returns the write phase's virtual-time duration.
func CollectiveVsIndependent(collective bool) (time.Duration, error) {
	const ranks, records = 8, 512
	const recSize = int64(64) << 10
	spec := cluster.DevCluster().WithServers(4)
	spec.ComputeNodes = ranks
	r := newRig(spec, false)
	clients := make([]*core.Client, ranks)
	for i := 1; i < ranks; i++ {
		clients[i] = r.cl.NewClient(r.l, i)
	}
	var elapsed time.Duration
	_, err := r.bench(noRetry, 0, func(p *sim.Proc, c *core.Client) error {
		clients[0] = c
		caps, err := allCaps(p, c)
		if err != nil {
			return err
		}
		for _, other := range clients[1:] {
			other.SetCredential(c.Credential())
		}
		job := collio.NewJob(clients, caps, 0)
		ds, err := job.CreateDataset(p, records*recSize)
		if err != nil {
			return err
		}
		start := p.Now()
		err = stripe.FanOut(p, "rank", ranks, ranks, func(q *sim.Proc, i int) error {
			frags := make([]collio.Fragment, 0, records/ranks)
			for rec := i; rec < records; rec += ranks {
				frags = append(frags, collio.Fragment{
					Off:     int64(rec) * recSize,
					Payload: netsim.SyntheticPayload(recSize),
				})
			}
			if collective {
				return job.Rank(i).CollectiveWrite(q, ds, frags)
			}
			return job.Rank(i).IndependentWrite(q, ds, frags)
		})
		elapsed = p.Now().Sub(start)
		return err
	})
	return elapsed, err
}
