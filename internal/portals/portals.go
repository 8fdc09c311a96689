// Package portals implements the subset of the Portals 3.0 message-passing
// interface (Brightwell et al., SAND99-2959) that the LWFS data-movement
// design depends on (paper §3.2): portal-table indexes, match entries,
// memory descriptors bound to payloads, one-sided Put and Get operations,
// and event queues.
//
// The crucial property is one-sidedness: a storage server can issue a Get
// against a client's posted memory descriptor to *pull* write data at the
// server's own pace (Figure 6), and a Put against a client's receive buffer
// to *push* read data. The initiating side needs no cooperation from a
// process on the target node: matching and data movement happen "in the
// NIC" (here, in kernel-context handlers over internal/netsim).
package portals

import (
	"errors"
	"math"
	"slices"
	"time"

	"lwfs/internal/metrics"
	"lwfs/internal/netsim"
	"lwfs/internal/sim"
)

// Index is a portal-table index. Services on a node bind match entries at
// well-known indexes (like ports).
type Index int

// MatchBits select which match entry a message lands in.
type MatchBits uint64

// HeaderSize is the wire overhead of every portals message, in bytes.
const HeaderSize = 64

// Event is an event-queue entry describing a Put that landed. It is also the
// wire record that carried the operation: Put and Get fill one, the network
// carries the pointer, and deliver hands a Put's record to the matched event
// queue (serveGet releases a Get's). Whoever takes it off the queue owns it
// and calls Release once it has copied out what it keeps (DESIGN.md §4.2,
// Record lifetime); an event nobody releases is ordinary garbage.
type Event struct {
	Initiator netsim.NodeID
	Bits      MatchBits
	Payload   netsim.Payload // data deposited by a Put

	// The wire header, one for every kind; each kind reads only its own
	// fields. Read by the wire path only.
	pt     Index
	kind   wireKind
	body   body    // a Put's header, a request's or a reply's value: its cell, or nil
	token  uint64  // wireRequest, wireGet: the match bits the reply goes to
	err    error   // wireResponse, wireGetReply
	rpc    rpcHead // wireRequest
	offset int64   // wireGet: the range read
	length int64
	home   *pool
	next   *Event // free-list link
}

// wireKind says what a record carries from Put or Get to deliver.
type wireKind uint8

const (
	wirePut      wireKind = iota // a Put; body is its header's cell, if any
	wireRequest                  // an RPC request: body, token, rpc
	wireResponse                 // an RPC reply: body and err
	wireGet                      // a Get request
	wireGetReply                 // a Get's answer: Payload or err
	wireFreed                    // released; nobody may touch it again
)

// pool is one network's free lists. It hangs off the netsim.Network every
// endpoint of a cluster shares (Attachment), so records never cross kernels
// and a closed cluster takes them with it. One kernel runs one process at a
// time, so plain lists are safe and deterministic, like netsim's xfer pool.
type pool struct {
	events *Event
	slots  *Slot
	cells  []any // by kind (ops.go): the head *cell[T] of each free list
	out    int   // cells taken and not yet released

	eps     endpoints // every endpoint: portals.<node>.*
	callers endpoints // those with a Caller: rpc.client.<node>.*
}

// endpoints is a metrics family of a network's endpoints.
type endpoints struct {
	list   []*Endpoint
	client bool
}

func (f *endpoints) Len() int          { return len(f.list) }
func (f *endpoints) Name(i int) string { return f.list[i].node.Name }
func (f *endpoints) Counter(i, leaf int) *metrics.Counter {
	ep := f.list[i]
	if f.client {
		return [...]*metrics.Counter{&ep.late, &ep.retries}[leaf]
	}
	return [...]*metrics.Counter{&ep.late, &ep.dropped}[leaf]
}

// live panics on a released record: a use after Release, or a second one.
func (ev *Event) live() *Event {
	if ev.kind == wireFreed {
		panic("portals: use of a released event record")
	}
	return ev
}

// Release hands the record back for reuse, with the cell it still holds.
// Only the receiver the sender addressed may call it, once, after copying
// out what it keeps; the record is poisoned so a later touch is caught (and,
// under the race detector, never reused — see recycle).
func (ev *Event) Release() {
	pl := ev.live().home
	if ev.body != nil {
		ev.body.release()
	}
	*ev = Event{pt: -1, Bits: ^MatchBits(0), kind: wireFreed, home: pl}
	if recycle {
		ev.next, pl.events = pl.events, ev
	}
}

// MD is a memory descriptor: the data a match entry exposes to remote Gets
// and the event queue that hears the Puts landing in it.
type MD struct {
	Payload netsim.Payload // readable contents for remote Gets
	EQ      *sim.Mailbox   // receives each Put's *Event; may be nil to suppress events
}

// ME is a match entry: match bits plus a memory descriptor, attached to a
// portal index. Unlink removes it.
type ME struct {
	bits   MatchBits
	ignore MatchBits
	md     *MD
	once   bool
	ep     *Endpoint
	pt     Index
	gone   bool
}

// Unlink detaches the match entry; subsequent messages no longer match it.
func (me *ME) Unlink() {
	if me.gone {
		return
	}
	me.gone = true
	list := me.ep.table(me.pt)
	for i, x := range *list {
		if x == me {
			*list = append((*list)[:i], (*list)[i+1:]...)
			return
		}
	}
}

// Endpoint is a node's portals interface. At most one endpoint may exist
// per node; services on the node share it, distinguished by portal index.
type Endpoint struct {
	net    *netsim.Network
	node   *netsim.Node
	tables []portal // the portals with entries, in first-attach order

	pool   *pool
	tokSeq uint64   // the last token NextToken handed out
	open   []uint64 // ReqIDs of the node's retryable Calls not yet returned, ascending

	getRetry *RetryPolicy // nil until SetGetRetry; a pointer keeps Endpoint in its size class
	getRNG   *sim.Rand

	// portals.<node>.no_match_drops|late_drops, and from the node's first
	// Caller on rpc.client.<node>.retries (calls); late is read as
	// late_drops and as rpc.client.<node>.late_replies, one count.
	dropped, late, retries metrics.Counter
	calls                  bool
}

// NextToken allocates an endpoint-unique token, the one space every reply
// and exposure on the node draws from: RPC reply tokens and request IDs, Get
// reply tokens, lock grants, data-transfer match bits. Every reply lands on
// ReplyPortal, so co-located users never collide, and a reply whose wait
// timed out matches no later one.
func (ep *Endpoint) NextToken() uint64 {
	ep.tokSeq++
	return ep.tokSeq
}

// openCall allocates a retryable Call's request ID and lists it outstanding
// until closeCall. IDs are allocated in increasing order, so the list stays
// sorted and its head is the node's ack watermark. Both stay out of line:
// their temporaries would otherwise sit in Call's frame, under every process
// parked in an RPC.
//
//go:noinline
func (ep *Endpoint) openCall() uint64 {
	id := ep.NextToken()
	ep.open = append(ep.open, id)
	return id
}

//go:noinline
func (ep *Endpoint) closeCall(id uint64) {
	i, _ := slices.BinarySearch(ep.open, id)
	ep.open = slices.Delete(ep.open, i, i+1)
}

// ackLag is how far below reqID, a retryable call's ID, the node's ack
// watermark lies: the lowest outstanding ID, never above reqID's own. It
// saturates: a lower watermark is always safe, it only keeps more.
func (ep *Endpoint) ackLag(reqID uint64) uint32 {
	if reqID == 0 {
		return 0
	}
	return uint32(min(reqID-ep.open[0], math.MaxUint32))
}

// ErrNoMatch is reported when a Get targets a portal index / match bits with
// no attached match entry.
var ErrNoMatch = errors.New("portals: no matching match entry")

// ErrBounds is reported when a Get reads outside the target MD's payload.
var ErrBounds = errors.New("portals: get outside memory descriptor bounds")

// ErrGetTimeout is reported when a one-sided Get exhausts its retry budget
// (SetGetRetry) without a reply.
var ErrGetTimeout = errors.New("portals: get timeout")

// NewEndpoint creates the portals endpoint for node and installs it as the
// node's network handler. A node has one endpoint.
func NewEndpoint(net *netsim.Network, node *netsim.Node) *Endpoint {
	pl, _ := net.Attachment().(*pool)
	if pl == nil {
		pl = &pool{callers: endpoints{client: true}}
		net.SetAttachment(pl)
		net.OnDrop(func(m netsim.Message) {
			if ev, ok := m.Body.(*Event); ok {
				ev.Release() // a record the fabric lost, and its cell
			}
		})
		net.Metrics().AddFamily("portals", []string{"late_drops", "no_match_drops"}, &pl.eps)
		net.Metrics().AddFamily("rpc.client", []string{"late_replies", "retries"}, &pl.callers)
	}
	ep := &Endpoint{
		net:  net,
		node: node,
		pool: pl,
	}
	pl.eps.list = append(pl.eps.list, ep)
	node.SetHandler(ep.deliver)
	return ep
}

// Node returns the endpoint's node ID.
func (ep *Endpoint) Node() netsim.NodeID { return ep.node.ID }

// NodeName returns the endpoint's node name — the instance segment services
// use when registering metrics ("burst.bb1.staged").
func (ep *Endpoint) NodeName() string { return ep.node.Name }

// Network returns the underlying network.
func (ep *Endpoint) Network() *netsim.Network { return ep.net }

// Metrics returns the cluster-wide instrument registry (never nil for an
// endpoint built on a live network).
func (ep *Endpoint) Metrics() *metrics.Registry { return ep.net.Metrics() }

// Kernel returns the simulation kernel.
func (ep *Endpoint) Kernel() *sim.Kernel { return ep.net.Kernel() }

// SetGetRetry arms one-sided Gets with a retry policy: each attempt is
// bounded by pol.Timeout and a lost request or reply is re-issued under a
// fresh token, up to pol.MaxAttempts. Without it (the default) a Get whose
// messages are dropped blocks its process forever — fatal for the storage
// server's pull-based writes under fault injection. rng seeds the backoff
// jitter; nil uses a default seed.
func (ep *Endpoint) SetGetRetry(pol RetryPolicy, rng *sim.Rand) {
	if rng == nil {
		rng = sim.NewRand(0)
	}
	ep.getRetry, ep.getRNG = &pol, rng
}

// dropNoMatch counts a message of kind that no match entry took. An RPC
// reply that finds no slot is a late one: its call timed out, which closed
// the slot, and its token is never drawn again.
func (ep *Endpoint) dropNoMatch(kind wireKind) {
	if kind == wireResponse {
		ep.late.Inc()
	}
	ep.dropped.Inc()
}

// Attach binds a match entry at portal index pt. Incoming operations match
// when (msgBits &^ ignore) == (bits &^ ignore). Entries are searched in
// attach order; the first match wins.
func (ep *Endpoint) Attach(pt Index, bits, ignore MatchBits, md *MD) *ME {
	me := &ME{bits: bits, ignore: ignore, md: md, ep: ep, pt: pt}
	list := ep.table(pt)
	*list = append(*list, me)
	return me
}

// Slot is a posted receive — an event queue, its memory descriptor and the
// match entry that feeds it — in one object recycled through the network's
// free list: the "post an entry, send, wait, unlink" every request/reply
// protocol over portals is made of (RPC replies, lock grants, Get replies,
// pushed read data) costs no allocation once warm. The same slot also
// exposes a payload to remote Gets (Expose), the client half of every
// server-directed write.
type Slot struct {
	eq   *sim.Mailbox
	md   MD
	me   ME
	next *Slot // free-list link
}

// Post attaches a receive slot at (pt, bits), exact match; once makes the
// entry use-once. The caller Waits on it and then Closes it.
func (ep *Endpoint) Post(pt Index, bits MatchBits, once bool) *Slot {
	s := ep.pool.slots
	if s == nil {
		s = &Slot{eq: sim.NewMailbox(ep.Kernel(), "portals/slot")}
		s.md.EQ = s.eq
	} else {
		ep.pool.slots, s.next = s.next, nil
	}
	s.me = ME{bits: bits, md: &s.md, once: once, ep: ep, pt: pt}
	list := ep.table(pt)
	*list = append(*list, &s.me)
	return s
}

// Expose attaches payload at (pt, bits), exact match, for remote Gets to read
// until the caller Closes the slot. While exposed the slot has no event
// queue: a Put landing on it is dropped. Bits must be fresh (NextToken): a
// Get still in flight for an earlier exposure of the recycled slot carries
// that exposure's bits and finds no match. It stays out of line, off the
// stack of every server-directed write.
//
//go:noinline
func (ep *Endpoint) Expose(pt Index, bits MatchBits, payload netsim.Payload) *Slot {
	s := ep.Post(pt, bits, false)
	s.md.Payload, s.md.EQ = payload, nil
	return s
}

// Len reports the events queued in the slot.
func (s *Slot) Len() int { return s.eq.Len() }

// Wait blocks p until an event lands in the slot and returns it; the caller
// Releases it. With timeout > 0 it gives up after that long, reports false
// and closes the slot: a message that landed in the very instant of the
// timeout is released with it (an RPC reply counted late, as one that finds
// no match is), and a later one finds no match.
func (s *Slot) Wait(p *sim.Proc, timeout time.Duration) (*Event, bool) {
	if timeout <= 0 {
		return s.eq.Recv(p).(*Event), true
	}
	return s.landed(s.eq.RecvTimeout(p, timeout))
}

// landed turns a slot wait's outcome into Wait's, closing the slot after a
// timeout. A continuation waits with s.eq.RecvCont and takes its result as
// s.landed(c.Msg()).
func (s *Slot) landed(v interface{}, ok bool) (*Event, bool) {
	if !ok {
		s.timedOut()
		return nil, false
	}
	return v.(*Event), true
}

// timedOut closes a slot whose wait timed out, counting an RPC reply that
// landed in the very instant of the timeout as late: its call gave up on it
// as surely as on one that finds no match (dropNoMatch). It stays out of
// line, off the frame under every process parked in a slot wait.
//
//go:noinline
func (s *Slot) timedOut() {
	for {
		v, ok := s.eq.TryRecv()
		if !ok {
			break
		}
		ev := v.(*Event)
		if ev.kind == wireResponse {
			s.me.ep.late.Inc()
		}
		ev.Release()
	}
	s.Close()
}

// Close unlinks the slot, releases the events nobody took, drops an exposed
// payload and returns the slot to the free list as a receive. Closing twice,
// or after Wait timed out (which closed it), is a bug.
func (s *Slot) Close() {
	ep := s.me.ep
	if ep == nil {
		panic("portals: slot closed twice, or after its wait timed out")
	}
	s.me.Unlink()
	drain(s.eq)
	s.me.ep = nil
	s.md = MD{EQ: s.eq}
	s.next, ep.pool.slots = ep.pool.slots, s
}

// drain empties a mailbox, releasing the event records in it, and reports
// how many messages it held.
func drain(m *sim.Mailbox) (n int) {
	for {
		v, ok := m.TryRecv()
		if !ok {
			return n
		}
		if ev, isEvent := v.(*Event); isEvent {
			ev.Release()
		}
		n++
	}
}

func (ep *Endpoint) match(pt Index, bits MatchBits) *ME {
	for i := range ep.tables {
		if ep.tables[i].pt != pt {
			continue
		}
		for _, me := range ep.tables[i].entries {
			if (bits &^ me.ignore) == (me.bits &^ me.ignore) {
				return me
			}
		}
		return nil
	}
	return nil
}

// portal is one portal index's match entries, in attach order. An endpoint
// uses a handful of indices: a scanned list costs less than a map.
type portal struct {
	pt      Index
	entries []*ME
}

// table returns pt's entry list, adding an empty one for a new index.
func (ep *Endpoint) table(pt Index) *[]*ME {
	for i := range ep.tables {
		if ep.tables[i].pt == pt {
			return &ep.tables[i].entries
		}
	}
	if ep.tables == nil {
		ep.tables = make([]portal, 0, 4) // a compute node uses 3
	}
	ep.tables = append(ep.tables, portal{pt: pt})
	return &ep.tables[len(ep.tables)-1].entries
}

// record takes a wire record off the network's free list (or makes one) and
// addresses it from this node to (pt, bits) with payload.
func (ep *Endpoint) record(pt Index, bits MatchBits, payload netsim.Payload) *Event {
	pl := ep.pool
	ev := pl.events
	if ev == nil {
		ev = &Event{home: pl}
	} else {
		pl.events, ev.next, ev.kind = ev.next, nil, wirePut
	}
	ev.Initiator, ev.pt, ev.Bits, ev.Payload = ep.node.ID, pt, bits, payload
	return ev
}

// send puts a filled record on the wire. The network carries the pointer;
// from here the record belongs to whoever receives it at target.
func (ep *Endpoint) send(target netsim.NodeID, ev *Event) {
	ep.net.Send(netsim.Message{From: ep.node.ID, To: target, Size: HeaderSize + ev.Payload.Size, Body: ev})
}

// ReplyPortal is the reserved portal index where every reply lands — an RPC
// reply, a Get reply, a lock grant — matched by a token from NextToken.
const ReplyPortal Index = 1022

// Get performs a one-sided read of [offset, offset+length) from the match
// entry at (target, pt, bits), blocking p until the data arrives. The
// request is a small message; the reply carries the data and pays full
// serialization costs on the target's egress and our ingress — this is the
// server-pull half of server-directed I/O.
func (ep *Endpoint) Get(p *sim.Proc, target netsim.NodeID, pt Index, bits MatchBits, offset, length int64) (netsim.Payload, error) {
	g := getOp{ep: ep, target: target, pt: pt, bits: bits, offset: offset, length: length}
	for {
		g.send()
		retry, pause := g.settle(g.slot.Wait(p, g.timeout()))
		if !retry {
			return g.payload, g.err
		}
		p.Sleep(pause)
	}
}

// getOp is one Get's attempt loop, written once as the steps between its
// waits: post the reply slot and send the request (send), wait on the slot
// for timeout(), then take the reply or, on a timeout (the wait closed the
// slot), either pause before the next attempt or give up with ErrGetTimeout (settle).
// Get runs it in a parked process; the puller runs it as a continuation,
// reusing one getOp for every chunk of a transfer.
type getOp struct {
	ep     *Endpoint
	target netsim.NodeID
	pt     Index
	bits   MatchBits
	offset int64
	length int64
	made   int // attempts sent so far; settle zeroes it when the Get is over
	slot   *Slot

	payload netsim.Payload // the result, once settle reports no retry
	err     error
}

// timeout bounds the wait for one attempt's reply: under a retry policy its
// Timeout, otherwise none.
func (g *getOp) timeout() time.Duration {
	if pol := g.ep.getRetry; pol != nil && pol.Enabled() {
		return pol.Timeout
	}
	return 0
}

// send posts the reply slot under a fresh token and sends the next attempt's
// request; the caller then waits on g.slot for g.timeout().
func (g *getOp) send() {
	ep := g.ep
	g.made++
	token := ep.NextToken()
	g.slot = ep.Post(ReplyPortal, MatchBits(token), true)
	req := ep.record(g.pt, g.bits, netsim.Payload{})
	req.kind, req.offset, req.length, req.token = wireGet, g.offset, g.length, token
	ep.send(g.target, req)
}

// settle takes the outcome of the slot wait — the reply, or ok false after a
// timeout (the wait has closed the slot) — and reports whether another
// attempt follows and the pause before it. Otherwise the Get is over and
// g.payload, g.err hold its result.
func (g *getOp) settle(reply *Event, ok bool) (retry bool, pause time.Duration) {
	slot := g.slot
	g.slot = nil
	if ok {
		g.payload, g.err, g.made = reply.Payload, reply.err, 0
		reply.Release()
		slot.Close()
		return false, 0
	}
	// Lost request or reply: retry under a fresh token. If the reply is merely
	// late it finds no match entry and is dropped — tokens are never reused,
	// so it cannot complete a different Get. A wait only times out under a
	// retry policy.
	pol := g.ep.getRetry
	if g.made == pol.MaxAttempts {
		g.payload, g.err, g.made = netsim.Payload{}, ErrGetTimeout, 0
		return false, 0
	}
	return true, pol.Pause(g.made-1, g.ep.getRNG)
}

// deliver runs in kernel context for every message addressed to this node.
// A Put's record goes to the matched entry's event queue as it is; one that
// matches nothing, or an entry with no queue, is released here.
func (ep *Endpoint) deliver(m netsim.Message) {
	ev, ok := m.Body.(*Event)
	if !ok {
		ep.dropped.Inc()
		return
	}
	if ev.live().kind == wireGet {
		ep.serveGet(ev)
		return
	}
	me := ep.match(ev.pt, ev.Bits)
	if me == nil {
		ep.dropNoMatch(ev.kind)
		ev.Release()
		return
	}
	if me.once {
		me.Unlink()
	}
	if me.md == nil || me.md.EQ == nil {
		ev.Release()
		return
	}
	me.md.EQ.Send(ev)
}

// serveGet answers a Get request "in the NIC": it reads the matched entry's
// payload into a reply record and releases the request record.
func (ep *Endpoint) serveGet(req *Event) {
	reply := ep.record(ReplyPortal, MatchBits(req.token), netsim.Payload{})
	reply.kind = wireGetReply
	if me := ep.match(req.pt, req.Bits); me == nil {
		ep.dropNoMatch(wireGet)
		reply.err = ErrNoMatch
	} else {
		src, end := me.md.Payload, req.offset+req.length
		if req.offset < 0 || req.length < 0 || end > src.Size {
			reply.err = ErrBounds
		} else {
			reply.Payload = src.Slice(req.offset, req.length)
		}
		if me.once {
			me.Unlink()
		}
	}
	to := req.Initiator
	req.Release()
	ep.send(to, reply)
}
