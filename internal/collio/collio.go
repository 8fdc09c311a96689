// Package collio is a collective-I/O library built directly on the
// LWFS-core — the §6 agenda item ("implementing commonly used I/O
// libraries like MPI-I/O ... directly on top of the LWFS core") realized
// for the one optimization the paper's introduction cites repeatedly:
// two-phase collective I/O (del Rosario/Bordawekar/Choudhary [12], Thakur's
// extended two-phase method [36], MPI-IO collectives [37]).
//
// The problem: scientific codes write *interleaved* small records (every
// rank owns every n-th block of a global array). Issued independently,
// those writes hit the storage servers as swarms of tiny requests, each
// paying per-operation disk overhead. A collective write instead
//
//  1. exchanges data among the ranks over the fast compute fabric so that
//     a few *aggregator* ranks each hold one large contiguous range, then
//  2. has each aggregator issue one big server-directed write.
//
// Because the LWFS core exposes objects and placement to the library
// (§3 guideline 3), the aggregator ranges map one-to-one onto objects on
// distinct servers — no file-system stripe negotiation in the way.
package collio

import (
	"fmt"
	"sort"

	"lwfs/internal/core"
	"lwfs/internal/metrics"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/stripe"
)

// collPortal receives exchange traffic; match bits address (dataset, rank).
const collPortal portals.Index = 17

// fragsHdr is the header of a shuffle Put: one rank's fragments for one
// aggregator.
var fragsHdr = portals.NewHeader[[]Fragment]()

// Fragment is one rank's piece of a global array: a global offset plus
// payload.
type Fragment struct {
	Off     int64
	Payload netsim.Payload
}

// Dataset is a global array laid out as one object per aggregator, each
// holding the contiguous range [i*AggSize, (i+1)*AggSize).
type Dataset struct {
	Objects []storage.ObjRef
	AggSize int64
}

// Size returns the dataset capacity.
func (d Dataset) Size() int64 { return int64(len(d.Objects)) * d.AggSize }

// layout is the dataset as a stripe layout one unit per object: a range
// that stays inside the dataset maps to one request per object it touches.
// Past the end, Plan would wrap modulo the width, so callers check first.
func (d Dataset) layout() stripe.Layout { return stripe.Layout{Unit: d.AggSize, Objs: d.Objects} }

// check rejects fragments that fall outside the dataset.
func (d Dataset) check(frags []Fragment) error {
	for _, f := range frags {
		if f.Off < 0 || f.Off+f.Payload.Size > d.Size() {
			return fmt.Errorf("collio: fragment [%d, %d) beyond dataset size %d", f.Off, f.Off+f.Payload.Size, d.Size())
		}
	}
	return nil
}

// Job coordinates one parallel application's collective operations. All
// ranks share the Job value (they run in one simulated address space, the
// same way they share a communicator); per-rank state lives in the Rank
// handles.
type Job struct {
	clients []*core.Client
	caps    core.CapSet
	nAggs   int
	ranks   []*Rank

	// Registered under `collio.*` (one instrument set per registry — all
	// ranks of all jobs on a cluster aggregate, which is the unit the
	// sweeps compare against independent writes).
	collectives  *metrics.Counter // per-rank CollectiveWrite calls
	shuffleMsgs  *metrics.Counter // phase-1 exchange messages
	shuffleBytes *metrics.Counter // payload bytes shipped over the compute fabric
	aggRuns      *metrics.Counter // coalesced runs written by aggregators
	indepWrites  *metrics.Counter // baseline IndependentWrite object writes
}

// Rank is one process's handle on the job.
type Rank struct {
	j       *Job
	id      int
	c       *core.Client
	inbox   *sim.Mailbox
	barrier *sim.Barrier
}

// NewJob builds a job over the given per-rank clients (one per process;
// co-located ranks may share endpoints) using capabilities caps. nAggs
// aggregator ranks are the first nAggs ranks; pass 0 to use one aggregator
// per storage server.
func NewJob(clients []*core.Client, caps core.CapSet, nAggs int) *Job {
	if nAggs <= 0 {
		nAggs = len(clients[0].Servers())
	}
	if nAggs > len(clients) {
		nAggs = len(clients)
	}
	j := &Job{clients: clients, caps: caps, nAggs: nAggs}
	co := clients[0].Endpoint().Metrics().Scope("collio")
	j.collectives = co.Counter("collective_writes")
	j.shuffleMsgs = co.Scope("shuffle").Counter("msgs")
	j.shuffleBytes = co.Scope("shuffle").Counter("bytes")
	j.aggRuns = co.Scope("agg").Counter("runs")
	j.indepWrites = co.Counter("independent_writes")
	barrier := sim.NewBarrier(len(clients))
	for i, c := range clients {
		r := &Rank{j: j, id: i, c: c, barrier: barrier}
		r.inbox = sim.NewMailbox(c.Endpoint().Kernel(), fmt.Sprintf("collio/rank%d", i))
		c.Endpoint().Attach(collPortal, portals.MatchBits(i)|rankBitsBase, 0, &portals.MD{EQ: r.inbox})
		j.ranks = append(j.ranks, r)
	}
	return j
}

// rankBitsBase keeps collio match bits out of other services' token space
// on shared endpoints.
const rankBitsBase portals.MatchBits = 1 << 56

// Rank returns rank i's handle.
func (j *Job) Rank(i int) *Rank { return j.ranks[i] }

// CreateDataset allocates the dataset's objects round-robin over the
// storage servers (rank 0 calls it; the returned value is shared).
func (j *Job) CreateDataset(p *sim.Proc, totalSize int64) (Dataset, error) {
	aggSize := (totalSize + int64(j.nAggs) - 1) / int64(j.nAggs)
	d := Dataset{AggSize: aggSize}
	c := j.clients[0]
	for i := 0; i < j.nAggs; i++ {
		ref, err := c.CreateObject(p, c.Server(i), j.caps)
		if err != nil {
			return Dataset{}, fmt.Errorf("collio: dataset object %d: %w", i, err)
		}
		d.Objects = append(d.Objects, ref)
	}
	return d, nil
}

// CollectiveWrite writes this rank's fragments of the global array using
// two-phase aggregation. Every rank of the job must call it (with possibly
// empty frags); it returns when the whole collective operation — exchange,
// aggregation and object writes — has completed at every rank.
func (r *Rank) CollectiveWrite(p *sim.Proc, d Dataset, frags []Fragment) error {
	j := r.j
	j.collectives.Inc()
	n := len(j.clients)
	// Phase 1: partition my fragments by aggregator and ship them over the
	// compute fabric. Every rank sends exactly one message per aggregator
	// so receivers know when they have everything.
	// A rank whose fragments are invalid still completes the collective
	// protocol (sends empty partitions, joins the barrier) so its peers
	// don't hang — the error is returned after the operation completes,
	// like an MPI error class on a collective.
	opErr := d.check(frags)
	if len(d.Objects) != j.nAggs {
		opErr = fmt.Errorf("collio: dataset of %d objects for %d aggregators", len(d.Objects), j.nAggs)
	}
	parts := make([][]Fragment, j.nAggs)
	if opErr == nil {
		l := d.layout()
		for _, f := range frags {
			for _, rq := range l.Plan(f.Off, f.Payload.Size) {
				parts[rq.Obj] = append(parts[rq.Obj], Fragment{Off: rq.Off, Payload: rq.Gather(f.Off, f.Payload)})
			}
		}
	}
	for agg := 0; agg < j.nAggs; agg++ {
		var bytes int64
		for _, f := range parts[agg] {
			bytes += f.Payload.Size
		}
		dst := j.ranks[agg]
		j.shuffleMsgs.Inc()
		j.shuffleBytes.Add(bytes)
		fragsHdr.Put(r.c.Endpoint(), dst.c.Node(), collPortal, portals.MatchBits(agg)|rankBitsBase,
			&parts[agg], // one rank's fragments for one aggregator, offsets object-local
			netsim.SyntheticPayload(bytes+64))
	}

	// Phase 2: aggregators gather n messages, coalesce, and write runs.
	if r.id < j.nAggs {
		var got []Fragment
		for i := 0; i < n; i++ {
			ev := r.inbox.Recv(p).(*portals.Event)
			got = append(got, *fragsHdr.Of(ev)...)
			ev.Release()
		}
		runs := coalesce(got)
		j.aggRuns.Add(int64(len(runs)))
		for _, run := range runs {
			if _, err := r.c.Write(p, d.Objects[r.id], j.caps, run.Off, run.Payload); err != nil && opErr == nil {
				opErr = fmt.Errorf("collio: aggregator %d write: %w", r.id, err)
			}
		}
	}
	// Completion barrier (the MPI_File_write_all return point).
	r.barrier.Await(p)
	return opErr
}

// coalesce merges adjacent fragments of one class, size-only or with
// content, into maximal contiguous runs; a run with content is its
// fragments joined (netsim.Joiner). Overlapping fragments are illegal in
// collective writes (ranks own disjoint pieces); later fragments win if it
// happens anyway.
func coalesce(frags []Fragment) []Fragment {
	sort.Slice(frags, func(i, k int) bool { return frags[i].Off < frags[k].Off })
	var out []Fragment
	for i := 0; i < len(frags); {
		first, end := frags[i], frags[i].Off+frags[i].Payload.Size
		k := i + 1
		for ; k < len(frags) && frags[k].Off == end && frags[k].Payload.Synthetic() == first.Payload.Synthetic(); k++ {
			end += frags[k].Payload.Size
		}
		j := netsim.Joiner{Size: end - first.Off}
		for _, f := range frags[i:k] {
			j.Add(f.Off-first.Off, f.Payload)
		}
		out = append(out, Fragment{Off: first.Off, Payload: j.Payload()})
		i = k
	}
	return out
}

// IndependentWrite is the baseline: this rank writes each of its fragments
// straight to the dataset objects, no exchange, no aggregation. Small
// interleaved fragments become swarms of small server requests. Like
// CollectiveWrite, a rank whose fragments are invalid or whose write fails
// still joins the completion barrier, and returns its first error after.
func (r *Rank) IndependentWrite(p *sim.Proc, d Dataset, frags []Fragment) error {
	opErr := d.check(frags)
	l := d.layout()
	for _, f := range frags {
		if opErr != nil {
			break
		}
		for _, rq := range l.Plan(f.Off, f.Payload.Size) {
			r.j.indepWrites.Inc()
			if _, err := r.c.Write(p, d.Objects[rq.Obj], r.j.caps, rq.Off, rq.Gather(f.Off, f.Payload)); err != nil {
				opErr = fmt.Errorf("collio: rank %d write: %w", r.id, err)
				break
			}
		}
	}
	r.barrier.Await(p)
	return opErr
}
