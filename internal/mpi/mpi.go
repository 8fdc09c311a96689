// Package mpi is a small message-passing communicator for simulated
// parallel jobs — the application model the paper's lightweight stack
// exists to serve ("the need to support MPI style programs on a
// space-shared system", §1). Application examples and I/O libraries in
// this repository use it for the process coordination an MPI runtime
// would provide: point-to-point sends with tags, and tree-based
// collectives (barrier, broadcast, gather, all-reduce) whose message
// counts are logarithmic in the job size, like the capability scatter of
// Figure 4a.
//
// All traffic moves through internal/portals over the simulated fabric,
// so collectives cost what they would cost: a barrier on 64 ranks is ~2
// log₂64 message latencies, not free.
package mpi

import (
	"fmt"

	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
)

// portal carries all communicator traffic; match bits select (rank).
const portal portals.Index = 16

// rankBitsBase keeps mpi match bits clear of other token spaces on shared
// endpoints.
const rankBitsBase portals.MatchBits = 1 << 57

// envelope is the wire format of one message.
type envelope struct {
	From int
	Tag  int
	Body interface{}
}

var envelopeHdr = portals.NewHeader[envelope]()

// Comm is a communicator over a fixed set of rank endpoints (ranks may
// share nodes, as the paper's 64-process runs share 31 compute nodes).
type Comm struct {
	id    uint64
	ranks []*Rank
}

// Rank is one process's handle.
type Rank struct {
	comm    *Comm
	id      int
	ep      *portals.Endpoint
	inbox   *sim.Mailbox
	pending []envelope

	sent    int64
	collSeq int // collective sequence number (advances identically on all ranks)
}

// New builds a communicator: rank i talks through eps[i]. Its id, drawn from
// the cluster the endpoints belong to, distinguishes communicators sharing
// endpoints (successive jobs, sub-communicators): each gets its own
// match-bit slice, and simulations side by side in one process share nothing.
func New(eps []*portals.Endpoint) *Comm {
	c := &Comm{id: uint64(eps[0].Metrics().NextID())}
	for i, ep := range eps {
		r := &Rank{comm: c, id: i, ep: ep}
		r.inbox = sim.NewMailbox(ep.Kernel(), fmt.Sprintf("mpi/comm%d-rank%d", c.id, i))
		ep.Attach(portal, c.bits(i), 0, &portals.MD{EQ: r.inbox})
		c.ranks = append(c.ranks, r)
	}
	return c
}

// bits is the match-bit address of rank i in this communicator.
func (c *Comm) bits(i int) portals.MatchBits {
	return rankBitsBase | portals.MatchBits(c.id)<<20 | portals.MatchBits(i)
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return len(c.ranks) }

// Rank returns rank i's handle.
func (c *Comm) Rank(i int) *Rank { return c.ranks[i] }

// ID returns this rank's index.
func (r *Rank) ID() int { return r.id }

// MessagesSent reports point-to-point sends issued by this rank (including
// those inside collectives) — used to assert logarithmic algorithms.
func (r *Rank) MessagesSent() int64 { return r.sent }

// Send delivers body (occupying size bytes on the wire) to rank `to` under
// a tag. It is asynchronous, like an eager MPI_Send of a small message.
func (r *Rank) Send(to int, tag int, body interface{}, size int64) {
	dst := r.comm.ranks[to]
	r.sent++
	envelopeHdr.Put(r.ep, dst.ep.Node(), portal, r.comm.bits(to),
		&envelope{From: r.id, Tag: tag, Body: body}, netsim.SyntheticPayload(size))
}

// Recv blocks until a message from rank `from` with the given tag arrives
// (out-of-order arrivals are buffered). from or tag may be Any.
const Any = -1

// Recv returns the first matching message's body and its source rank.
func (r *Rank) Recv(p *sim.Proc, from, tag int) (interface{}, int) {
	match := func(e envelope) bool {
		return (from == Any || e.From == from) && (tag == Any || e.Tag == tag)
	}
	for i, e := range r.pending {
		if match(e) {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return e.Body, e.From
		}
	}
	for {
		ev := r.inbox.Recv(p).(*portals.Event)
		e := *envelopeHdr.Of(ev)
		ev.Release()
		if match(e) {
			return e.Body, e.From
		}
		r.pending = append(r.pending, e)
	}
}

// --- binomial-tree collectives -------------------------------------------
//
// Tree edges for root-rooted collectives: relative rank v's parent is
// v - 2^k where 2^k is v's lowest set bit; its children are v + 2^k for
// 2^k > lowest set bit while in range. Depth and per-rank degree are
// O(log n).

func lowbit(v int) int {
	if v == 0 {
		return 0
	}
	return v & (-v)
}

// children yields the relative ranks this relative rank forwards to.
func children(rel, n int) []int {
	var out []int
	start := 1
	if rel != 0 {
		start = lowbit(rel) >> 1
	} else {
		// root: children at every power of two
		for b := 1; b < n; b <<= 1 {
			out = append(out, b)
		}
		return out
	}
	for b := start; b >= 1; b >>= 1 {
		if rel+b < n && b < lowbit(rel) {
			out = append(out, rel+b)
		}
	}
	return out
}

func parent(rel int) int { return rel - lowbit(rel) }

const (
	tagBcast   = -100
	tagGather  = -101
	tagBarrier = -102
)

// collTag embeds the collective sequence number in the tag so consecutive
// collectives can never consume each other's messages (ranks must issue
// the same collectives in the same order, as in MPI).
func (r *Rank) collTag(base int) int {
	r.collSeq++
	return base - 16*r.collSeq
}

// Bcast distributes body from root to every rank; every rank must call it
// and receives the body as the return value.
func (r *Rank) Bcast(p *sim.Proc, root int, body interface{}, size int64) interface{} {
	tag := r.collTag(tagBcast)
	n := r.comm.Size()
	rel := (r.id - root + n) % n
	if rel != 0 {
		got, _ := r.Recv(p, Any, tag)
		body = got
	}
	for _, c := range children(rel, n) {
		r.Send((c+root)%n, tag, body, size)
	}
	return body
}

// Gather collects every rank's body at root (returned index = rank).
// Non-root ranks return nil.
func (r *Rank) Gather(p *sim.Proc, root int, body interface{}, size int64) []interface{} {
	tag := r.collTag(tagGather)
	n := r.comm.Size()
	rel := (r.id - root + n) % n
	// Accumulate my subtree's contributions.
	acc := map[int]interface{}{r.id: body}
	for range children(rel, n) {
		got, _ := r.Recv(p, Any, tag)
		for rank, b := range got.(map[int]interface{}) {
			acc[rank] = b
		}
	}
	if rel != 0 {
		r.Send((parent(rel)+root)%n, tag, acc, size*int64(len(acc))+64)
		return nil
	}
	out := make([]interface{}, n)
	for rank, b := range acc {
		out[rank] = b
	}
	return out
}

// Barrier blocks until every rank has entered it.
func (r *Rank) Barrier(p *sim.Proc) {
	tag := r.collTag(tagBarrier)
	n := r.comm.Size()
	rel := r.id
	for range children(rel, n) {
		r.Recv(p, Any, tag)
	}
	if rel != 0 {
		r.Send(parent(rel), tag, nil, 16)
	}
	// Release broadcast (advances the sequence on every rank alike).
	r.Bcast(p, 0, nil, 16)
}

// Allreduce combines every rank's value with op (associative and
// commutative) and returns the result on every rank.
func (r *Rank) Allreduce(p *sim.Proc, value interface{}, size int64, op func(a, b interface{}) interface{}) interface{} {
	parts := r.Gather(p, 0, value, size)
	var result interface{}
	if r.id == 0 {
		result = parts[0]
		for _, v := range parts[1:] {
			result = op(result, v)
		}
	}
	return r.Bcast(p, 0, result, size)
}
