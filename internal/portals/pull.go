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
// any number of service threads. Only the calling thread parks: the fetch side
// runs as a continuation (sim.Cont), and a transfer's mailbox, continuation
// and chunk slots come off the Puller's free list, so a warm Pull allocates
// nothing.
type Puller struct {
	ep        *Endpoint
	name      string // server/puller: names the transfers' mailboxes
	chunkSize int64
	free      []*pull
}

// NewPuller returns the pull loop of the server called name at ep, pulling in
// pieces of chunkSize bytes.
func NewPuller(ep *Endpoint, name string, chunkSize int64) *Puller {
	return &Puller{ep: ep, name: name + "/puller", chunkSize: chunkSize}
}

// pull is the state of one transfer. Between transfers it waits on
// Puller.free: the fetch side sends its last chunk and stops without waiting
// again, so once the consumer has that chunk nothing else holds the record.
type pull struct {
	pl     *Puller
	chunks *sim.Mailbox
	cont   sim.Cont      // the fetch side: step, bound once
	slots  []pulledChunk // a ring: chunk i travels through the mailbox as &slots[i%len(slots)]

	total int64
	n     int // chunks in the transfer
	pool  *sim.Resource

	// Where the fetch side stands: chunk i, the Get that fetches it (aimed at
	// the initiator's match entry once per transfer), and what step does when
	// woken.
	i     int
	get   getOp
	stage uint8
}

// What step does next, each stage entered after a wait (or none).
const (
	claimChunk uint8 = iota // claim chunk i's pinned bytes and aim the Get at them
	sendGet                 // the bytes are ours, or a retry's pause is over: send an attempt
	takeReply               // the attempt's reply landed or it timed out
)

// pulledChunk is one chunk's outcome. Its offset is its index times the
// chunk size: chunks arrive in order, so the slot does not carry it.
type pulledChunk struct {
	payload netsim.Payload
	err     error
}

// Pull streams [0, total) from the initiator's exposed match entry in
// chunkSize pieces, double-buffered against pool (bytes of pinned memory) so
// the network pull of chunk i+1 overlaps sink(i). sink runs in the calling
// process and consumes each chunk in offset order; once it fails, remaining
// chunks are still drained (their buffers must return to the pool) but not
// delivered. A failed Get ends the transfer with the pool whole. Pull returns
// the bytes successfully consumed and the first error. A chunk holds its pool
// bytes from before its Get until the consumer has read its slot, so at most
// pool.Capacity()/chunkSize + 1 slots, reused as a ring, carry a transfer.
func (pl *Puller) Pull(p *sim.Proc, from netsim.NodeID, dataPortal Index, bits MatchBits, total int64,
	pool *sim.Resource, sink func(q *sim.Proc, off int64, chunk netsim.Payload) error) (int64, error) {
	if total <= 0 {
		return 0, nil // nothing to pull, so no fetch side (it would outlive this call)
	}
	var r *pull
	if n := len(pl.free); n > 0 {
		r, pl.free = pl.free[n-1], pl.free[:n-1]
	} else {
		r = &pull{pl: pl, chunks: sim.NewMailbox(pl.ep.Kernel(), pl.name)}
		r.cont.Bind(pl.ep.Kernel(), r.step)
	}
	nchunks := int((total-1)/pl.chunkSize) + 1 // total > 0: no overflow
	nslots := min(nchunks, int(pool.Capacity()/pl.chunkSize)+1)
	if cap(r.slots) < nslots {
		r.slots = make([]pulledChunk, nslots)
	}
	r.slots = r.slots[:nslots]
	r.total, r.n, r.pool = total, nchunks, pool
	r.get = getOp{ep: pl.ep, target: from, pt: dataPortal, bits: bits}
	r.i, r.stage = 0, claimChunk
	r.cont.Start()

	var consumed int64
	var firstErr error
	for i := 0; i < nchunks; i++ {
		c := r.chunks.Recv(p).(*pulledChunk)
		payload, err := c.payload, c.err
		c.payload = netsim.Payload{} // the record must not pin the client's bytes
		if err != nil {
			// The fetch side stops after a failed Get; no more chunks follow.
			if firstErr == nil {
				firstErr = fmt.Errorf("portals: pulling client data: %w", err)
			}
			break
		}
		if firstErr == nil {
			if err := sink(p, int64(i)*pl.chunkSize, payload); err != nil {
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

// step is the fetch side, chunk after chunk, bounded by the pinned pool. It
// runs in kernel context from one wait to the next, woken where a parked
// process would resume (sim.Cont), and returns at every wait, and after the
// last chunk or a failed Get.
func (r *pull) step() {
	for {
		switch r.stage {
		case claimChunk:
			g := &r.get
			g.offset = int64(r.i) * r.pl.chunkSize
			g.length = min(r.pl.chunkSize, r.total-g.offset)
			r.stage = sendGet
			if !r.pool.AcquireCont(&r.cont, g.length) {
				return
			}
		case sendGet:
			r.get.send()
			r.stage = takeReply
			if !r.get.slot.eq.RecvCont(&r.cont, r.get.timeout()) {
				return
			}
		case takeReply:
			g := &r.get
			retry, pause := g.settle(g.slot.landed(r.cont.Msg()))
			if retry {
				r.stage = sendGet
				r.cont.Sleep(pause)
				return
			}
			slot := &r.slots[r.i%len(r.slots)]
			*slot = pulledChunk{payload: g.payload, err: g.err}
			g.payload = netsim.Payload{} // the record must not pin the client's bytes
			r.chunks.Send(slot)
			if g.err != nil {
				// The failed chunk carries no payload; return its buffer here so
				// the pool is whole for the next request.
				r.pool.Release(g.length)
				return
			}
			if r.i++; r.i == r.n {
				return
			}
			r.stage = claimChunk
		}
	}
}
