package portals

import (
	"fmt"

	"lwfs/internal/netsim"
	"lwfs/internal/sim"
)

// Puller is the server half of the Figure 6 server-directed write, the one
// pull loop of every service that fetches bulk data from a client at its own
// pace: the LWFS storage servers, the burst-buffer staging tier and the
// baseline's OSTs. A server makes one Puller and calls Pull per request, from
// any number of service threads; a transfer's mailbox, puller function and
// chunk slots come off the Puller's free list, so a warm Pull allocates nothing.
type Puller struct {
	ep        *Endpoint
	name      string // server/puller: names the puller processes and their mailboxes
	chunkSize int64
	free      []*pull
}

// NewPuller returns the pull loop of the server called name at ep, pulling in
// pieces of chunkSize bytes.
func NewPuller(ep *Endpoint, name string, chunkSize int64) *Puller {
	return &Puller{ep: ep, name: name + "/puller", chunkSize: chunkSize}
}

// pull is the state of one transfer. Between transfers it waits on
// Puller.free: the puller process sends its last chunk and returns without
// blocking, so once the consumer has that chunk nothing else holds the record.
type pull struct {
	pl     *Puller
	chunks *sim.Mailbox
	run    func(q *sim.Proc) // fetch, bound once
	slots  []pulledChunk     // chunk i travels through the mailbox as &slots[i]

	from   netsim.NodeID
	portal Index
	bits   MatchBits
	total  int64
	pool   *sim.Resource
}

type pulledChunk struct {
	off     int64
	payload netsim.Payload
	err     error
}

// Pull streams [0, total) from the initiator's exposed match entry in
// chunkSize pieces, double-buffered against pool (bytes of pinned memory) so
// the network pull of chunk i+1 overlaps sink(i). sink runs in the calling
// process and consumes each chunk in offset order; once it fails, remaining
// chunks are still drained (their buffers must return to the pool) but not
// delivered. A failed Get ends the transfer with the pool whole. Pull returns
// the bytes successfully consumed and the first error.
func (pl *Puller) Pull(p *sim.Proc, from netsim.NodeID, dataPortal Index, bits MatchBits, total int64,
	pool *sim.Resource, sink func(q *sim.Proc, off int64, chunk netsim.Payload) error) (int64, error) {
	if total <= 0 {
		return 0, nil // nothing to pull, so no puller (it would outlive this call)
	}
	var r *pull
	if n := len(pl.free); n > 0 {
		r, pl.free = pl.free[n-1], pl.free[:n-1]
	} else {
		r = &pull{pl: pl, chunks: sim.NewMailbox(pl.ep.Kernel(), pl.name)}
		r.run = r.fetch
	}
	nchunks := int((total + pl.chunkSize - 1) / pl.chunkSize)
	if cap(r.slots) < nchunks {
		r.slots = make([]pulledChunk, nchunks)
	}
	r.slots = r.slots[:nchunks]
	r.from, r.portal, r.bits, r.total, r.pool = from, dataPortal, bits, total, pool
	p.Kernel().Spawn(pl.name, r.run)

	var consumed int64
	var firstErr error
	for i := 0; i < nchunks; i++ {
		c := r.chunks.Recv(p).(*pulledChunk)
		payload, err := c.payload, c.err
		c.payload = netsim.Payload{} // the record must not pin the client's bytes
		if err != nil {
			// The puller exits after a failed Get; no more chunks follow.
			if firstErr == nil {
				firstErr = fmt.Errorf("portals: pulling client data: %w", err)
			}
			break
		}
		if firstErr == nil {
			if err := sink(p, c.off, payload); err != nil {
				firstErr = err
			} else {
				consumed += payload.Size
			}
		}
		pool.Release(payload.Size)
	}
	pl.free = append(pl.free, r)
	return consumed, firstErr
}

// fetch is the puller process: chunk after chunk, bounded by the pinned pool.
func (r *pull) fetch(q *sim.Proc) {
	size := r.pl.chunkSize
	for i, off := 0, int64(0); off < r.total; i, off = i+1, off+size {
		n := min(size, r.total-off)
		r.pool.Acquire(q, n)
		payload, err := r.pl.ep.Get(q, r.from, r.portal, r.bits, off, n)
		r.slots[i] = pulledChunk{off: off, payload: payload, err: err}
		r.chunks.Send(&r.slots[i])
		if err != nil {
			// The failed chunk carries no payload; return its buffer here so
			// the pool is whole for the next request.
			r.pool.Release(n)
			return
		}
	}
}
