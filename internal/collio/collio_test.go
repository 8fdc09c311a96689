package collio_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"lwfs/internal/authz"
	"lwfs/internal/cluster"
	"lwfs/internal/collio"
	"lwfs/internal/core"
	"lwfs/internal/netsim"
	"lwfs/internal/sim"
	"lwfs/internal/trace"
)

const kb = 1 << 10
const mb = 1 << 20

// rig builds a cluster, a logged-in client per rank, and shared caps.
type rig struct {
	cl      *cluster.Cluster
	clients []*core.Client
	caps    core.CapSet
}

func newRig(t *testing.T, ranks, servers int, setup func(r *rig, p *sim.Proc)) *rig {
	t.Helper()
	spec := cluster.DevCluster().WithServers(servers)
	spec.ComputeNodes = ranks
	cl := cluster.New(spec)
	cl.RegisterUser("mpi", "pw")
	l := cl.DeployLWFS()
	r := &rig{cl: cl}
	for i := 0; i < ranks; i++ {
		r.clients = append(r.clients, cl.NewClient(l, i))
	}
	cl.Spawn("setup", func(p *sim.Proc) {
		c := r.clients[0]
		if err := c.Login(p, "mpi", "pw"); err != nil {
			t.Errorf("login: %v", err)
			return
		}
		cid, _ := c.CreateContainer(p)
		caps, err := c.GetCaps(p, cid, authz.AllOps...)
		if err != nil {
			t.Errorf("caps: %v", err)
			return
		}
		r.caps = caps
		// Hand the credential to every rank (transferable, §3.1.2).
		for _, other := range r.clients[1:] {
			other.SetCredential(c.Credential())
		}
		setup(r, p)
	})
	return r
}

// interleaved returns rank's fragments of an n-rank round-robin layout:
// rank r owns records r, r+n, r+2n, ... of recSize bytes each.
func interleaved(rank, ranks int, records int, recSize int64, fill byte) []collio.Fragment {
	var out []collio.Fragment
	for rec := rank; rec < records; rec += ranks {
		data := make([]byte, recSize)
		for i := range data {
			data[i] = fill + byte(rec)
		}
		out = append(out, collio.Fragment{
			Off:     int64(rec) * recSize,
			Payload: netsim.BytesPayload(data),
		})
	}
	return out
}

func TestCollectiveWriteAssemblesGlobalArray(t *testing.T) {
	const ranks, records = 4, 32
	const recSize = 4 * kb
	r := newRig(t, ranks, 4, func(r *rig, p *sim.Proc) {
		job := collio.NewJob(r.clients, r.caps, 0)
		d, err := job.CreateDataset(p, records*recSize)
		if err != nil {
			t.Errorf("dataset: %v", err)
			return
		}
		var wg sim.WaitGroup
		wg.Add(ranks)
		for i := 0; i < ranks; i++ {
			i := i
			p.Kernel().Spawn(fmt.Sprintf("rank%d", i), func(q *sim.Proc) {
				defer wg.Done()
				if err := job.Rank(i).CollectiveWrite(q, d, interleaved(i, ranks, records, recSize, 0)); err != nil {
					t.Errorf("rank %d: %v", i, err)
				}
			})
		}
		wg.Wait(p)
		// Verify the assembled array, object by object.
		c := r.clients[0]
		for a, ref := range d.Objects {
			got, err := c.Read(p, ref, r.caps, 0, d.AggSize)
			if err != nil {
				t.Errorf("read agg %d: %v", a, err)
				return
			}
			for off := int64(0); off < got.Size; off++ {
				globalOff := int64(a)*d.AggSize + off
				rec := globalOff / recSize
				if rec >= records {
					break
				}
				want := byte(rec)
				if got.Data[off] != want {
					t.Errorf("agg %d off %d: got %d want %d", a, off, got.Data[off], want)
					return
				}
			}
		}
	})
	if err := r.cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// Records that are seeded runs, each of its own seed, keep their own
// content through the aggregators: adjacent fragments of different runs
// join into bytes, not into one run of the first record's seed.
func TestCollectiveWriteKeepsSeededRecords(t *testing.T) {
	const ranks, records = 4, 16
	const recSize = 4 * kb
	seedOf := func(rec int) uint64 { return uint64(1000 + 7*rec) }
	r := newRig(t, ranks, 2, func(r *rig, p *sim.Proc) {
		job := collio.NewJob(r.clients, r.caps, 0)
		d, err := job.CreateDataset(p, records*recSize)
		if err != nil {
			t.Errorf("dataset: %v", err)
			return
		}
		var wg sim.WaitGroup
		wg.Add(ranks)
		for i := 0; i < ranks; i++ {
			var frags []collio.Fragment
			for rec := i; rec < records; rec += ranks {
				frags = append(frags, collio.Fragment{Off: int64(rec) * recSize, Payload: netsim.SeededPayload(seedOf(rec), recSize)})
			}
			p.Kernel().Spawn(fmt.Sprintf("rank%d", i), func(q *sim.Proc) {
				defer wg.Done()
				if err := job.Rank(i).CollectiveWrite(q, d, frags); err != nil {
					t.Errorf("rank %d: %v", i, err)
				}
			})
		}
		wg.Wait(p)
		var wrong []int
		for rec := 0; rec < records; rec++ {
			off := int64(rec) * recSize
			got, err := r.clients[0].Read(p, d.Objects[off/d.AggSize], r.caps, off%d.AggSize, recSize)
			if err != nil {
				t.Errorf("read record %d: %v", rec, err)
				return
			}
			if have := make([]byte, recSize); got.CopyTo(have) != recSize || !bytes.Equal(have, trace.DataFor(seedOf(rec), recSize)) {
				wrong = append(wrong, rec)
			}
		}
		if len(wrong) > 0 {
			t.Errorf("records %v of %d read back other than their seed's bytes", wrong, records)
		}
	})
	if err := r.cl.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestIndependentWriteSameResult(t *testing.T) {
	const ranks, records = 4, 16
	const recSize = 2 * kb
	r := newRig(t, ranks, 2, func(r *rig, p *sim.Proc) {
		job := collio.NewJob(r.clients, r.caps, 0)
		d, err := job.CreateDataset(p, records*recSize)
		if err != nil {
			t.Errorf("dataset: %v", err)
			return
		}
		var wg sim.WaitGroup
		wg.Add(ranks)
		for i := 0; i < ranks; i++ {
			i := i
			p.Kernel().Spawn(fmt.Sprintf("rank%d", i), func(q *sim.Proc) {
				defer wg.Done()
				if err := job.Rank(i).IndependentWrite(q, d, interleaved(i, ranks, records, recSize, 0)); err != nil {
					t.Errorf("rank %d: %v", i, err)
				}
			})
		}
		wg.Wait(p)
		c := r.clients[0]
		got, err := c.Read(p, d.Objects[0], r.caps, 0, recSize*4)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		for off := int64(0); off < got.Size; off++ {
			if want := byte(off / recSize); got.Data[off] != want {
				t.Errorf("off %d: got %d want %d", off, got.Data[off], want)
				return
			}
		}
	})
	if err := r.cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTwoPhaseBeatsIndependentForSmallRecords: the reason collective I/O
// exists. Interleaved 64 KiB records: independent writes pay per-request
// overhead at the servers; the collective exchange turns them into a few
// large server-directed writes.
func TestTwoPhaseBeatsIndependentForSmallRecords(t *testing.T) {
	const ranks, records = 8, 512
	const recSize = 64 * kb

	elapsed := func(collective bool) time.Duration {
		var d time.Duration
		r := newRig(t, ranks, 4, func(r *rig, p *sim.Proc) {
			job := collio.NewJob(r.clients, r.caps, 0)
			ds, err := job.CreateDataset(p, records*recSize)
			if err != nil {
				t.Errorf("dataset: %v", err)
				return
			}
			start := p.Now()
			var wg sim.WaitGroup
			wg.Add(ranks)
			for i := 0; i < ranks; i++ {
				i := i
				p.Kernel().Spawn(fmt.Sprintf("rank%d", i), func(q *sim.Proc) {
					defer wg.Done()
					frags := make([]collio.Fragment, 0, records/ranks)
					for rec := i; rec < records; rec += ranks {
						frags = append(frags, collio.Fragment{
							Off:     int64(rec) * recSize,
							Payload: netsim.SyntheticPayload(recSize),
						})
					}
					var werr error
					if collective {
						werr = job.Rank(i).CollectiveWrite(q, ds, frags)
					} else {
						werr = job.Rank(i).IndependentWrite(q, ds, frags)
					}
					if werr != nil {
						t.Errorf("rank %d: %v", i, werr)
					}
				})
			}
			wg.Wait(p)
			d = p.Now().Sub(start)
		})
		if err := r.cl.Run(); err != nil {
			t.Fatal(err)
		}
		return d
	}

	coll := elapsed(true)
	indep := elapsed(false)
	t.Logf("collective %v vs independent %v (%.1fx)", coll, indep, indep.Seconds()/coll.Seconds())
	if indep.Seconds() < 1.2*coll.Seconds() {
		t.Fatalf("two-phase advantage missing: collective %v, independent %v", coll, indep)
	}
}

func TestFragmentSpanningAggregators(t *testing.T) {
	// One fragment crossing an aggregator boundary must split correctly.
	const ranks = 2
	r := newRig(t, ranks, 2, func(r *rig, p *sim.Proc) {
		job := collio.NewJob(r.clients, r.caps, 2)
		d, err := job.CreateDataset(p, 64*kb) // 2 aggs x 32KB
		if err != nil {
			t.Errorf("dataset: %v", err)
			return
		}
		data := make([]byte, 16*kb)
		for i := range data {
			data[i] = byte(i)
		}
		var wg sim.WaitGroup
		wg.Add(ranks)
		for i := 0; i < ranks; i++ {
			i := i
			p.Kernel().Spawn(fmt.Sprintf("rank%d", i), func(q *sim.Proc) {
				defer wg.Done()
				var frags []collio.Fragment
				if i == 0 {
					// Straddles the 32KB boundary: [24KB, 40KB).
					frags = []collio.Fragment{{Off: 24 * kb, Payload: netsim.BytesPayload(data)}}
				}
				if err := job.Rank(i).CollectiveWrite(q, d, frags); err != nil {
					t.Errorf("rank %d: %v", i, err)
				}
			})
		}
		wg.Wait(p)
		c := r.clients[0]
		a0, _ := c.Read(p, d.Objects[0], r.caps, 24*kb, 8*kb)
		a1, _ := c.Read(p, d.Objects[1], r.caps, 0, 8*kb)
		for i := int64(0); i < 8*kb; i++ {
			if a0.Data[i] != byte(i) {
				t.Errorf("agg0 byte %d = %d", i, a0.Data[i])
				return
			}
			if a1.Data[i] != byte(8*kb+i) {
				t.Errorf("agg1 byte %d = %d", i, a1.Data[i])
				return
			}
		}
	})
	if err := r.cl.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteBeyondDatasetRejected(t *testing.T) {
	r := newRig(t, 2, 2, func(r *rig, p *sim.Proc) {
		job := collio.NewJob(r.clients, r.caps, 2)
		d, err := job.CreateDataset(p, 8*kb)
		if err != nil {
			t.Errorf("dataset: %v", err)
			return
		}
		var wg sim.WaitGroup
		wg.Add(2)
		for i := 0; i < 2; i++ {
			i := i
			p.Kernel().Spawn(fmt.Sprintf("rank%d", i), func(q *sim.Proc) {
				defer wg.Done()
				var frags []collio.Fragment
				if i == 0 {
					frags = []collio.Fragment{{Off: 100 * kb, Payload: netsim.SyntheticPayload(kb)}}
				}
				err := job.Rank(i).CollectiveWrite(q, d, frags)
				if i == 0 && err == nil {
					t.Error("out-of-range fragment accepted")
				}
			})
		}
		wg.Wait(p)
	})
	if err := r.cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// An out-of-range fragment fails only the rank that passed it: that rank
// still joins the completion barrier, so its peer's valid write returns too.
func TestIndependentWriteBeyondDatasetJoinsBarrier(t *testing.T) {
	r := newRig(t, 2, 2, func(r *rig, p *sim.Proc) {
		job := collio.NewJob(r.clients, r.caps, 2)
		d, err := job.CreateDataset(p, 8*kb)
		if err != nil {
			t.Errorf("dataset: %v", err)
			return
		}
		errs := make([]error, 2)
		returned := 0
		var wg sim.WaitGroup
		wg.Add(2)
		for i := 0; i < 2; i++ {
			i := i
			p.Kernel().Spawn(fmt.Sprintf("rank%d", i), func(q *sim.Proc) {
				defer wg.Done()
				frags := []collio.Fragment{{Off: 0, Payload: netsim.SyntheticPayload(kb)}}
				if i == 0 {
					frags = []collio.Fragment{{Off: 100 * kb, Payload: netsim.SyntheticPayload(kb)}}
				}
				errs[i] = job.Rank(i).IndependentWrite(q, d, frags)
				returned++
			})
		}
		wg.Wait(p)
		if returned != 2 {
			t.Fatalf("%d of 2 ranks returned", returned)
		}
		if errs[0] == nil {
			t.Error("out-of-range fragment accepted")
		}
		if errs[1] != nil {
			t.Errorf("valid rank failed: %v", errs[1])
		}
	})
	if err := r.cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// A dataset must hold one object per aggregator: a collective write against
// any other fails at every rank instead of indexing past the aggregators.
func TestCollectiveWriteRejectsDatasetOfOtherWidth(t *testing.T) {
	r := newRig(t, 2, 2, func(r *rig, p *sim.Proc) {
		job := collio.NewJob(r.clients, r.caps, 2)
		d, err := job.CreateDataset(p, 8*kb)
		if err != nil {
			t.Errorf("dataset: %v", err)
			return
		}
		d.Objects = append(d.Objects, d.Objects[0])
		var wg sim.WaitGroup
		wg.Add(2)
		for i := 0; i < 2; i++ {
			i := i
			p.Kernel().Spawn(fmt.Sprintf("rank%d", i), func(q *sim.Proc) {
				defer wg.Done()
				frags := []collio.Fragment{{Off: 9 * kb, Payload: netsim.SyntheticPayload(kb)}}
				if err := job.Rank(i).CollectiveWrite(q, d, frags); err == nil {
					t.Errorf("rank %d: a 3-object dataset accepted by 2 aggregators", i)
				}
			})
		}
		wg.Wait(p)
	})
	if err := r.cl.Run(); err != nil {
		t.Fatal(err)
	}
}
