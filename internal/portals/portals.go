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
	Hdr       interface{}    // out-of-band header data carried by a Put
	Payload   netsim.Payload // data deposited by a Put

	// Read by the wire path only.
	pt     Index
	kind   wireKind
	req    rpcRequest  // wireRequest
	resp   rpcResponse // wireResponse
	offset int64       // wireGet: the range read
	length int64
	token  uint64 // wireGet: the reply's match bits at getReplyPortal
	err    error  // wireGetReply
	home   *pool
	next   *Event // free-list link
}

// wireKind says what a record carries from Put or Get to deliver.
type wireKind uint8

const (
	wirePut      wireKind = iota // a Put; Hdr is whatever the sender passed
	wireRequest                  // a Put whose header is req, unboxed
	wireResponse                 // a Put whose header is resp, unboxed
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
}

// live panics on a released record: a use after Release, or a second one.
func (ev *Event) live() *Event {
	if ev.kind == wireFreed {
		panic("portals: use of a released event record")
	}
	return ev
}

// Release hands the record back for reuse. Only the receiver the sender
// addressed may call it, once, after copying out what it keeps; the record
// is poisoned so a later touch is caught (and, under the race detector,
// never reused — see recycle).
func (ev *Event) Release() {
	pl := ev.live().home
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
	list := me.ep.tables[me.pt]
	for i, x := range list {
		if x == me {
			me.ep.tables[me.pt] = append(list[:i], list[i+1:]...)
			return
		}
	}
}

// lateKey identifies an expected late message: a portal index and match
// bits whose match entry was unlinked by a timeout.
type lateKey struct {
	pt   Index
	bits MatchBits
}

// Endpoint is a node's portals interface. At most one endpoint may exist
// per node; services on the node share it, distinguished by portal index.
type Endpoint struct {
	net    *netsim.Network
	node   *netsim.Node
	tables map[Index][]*ME

	pool      *pool
	nextToken uint64 // Get reply tokens (their own portal, so their own space)
	tokSeq    uint64
	open      []uint64 // ReqIDs of the node's retryable Calls not yet returned, ascending

	getRetry *RetryPolicy // nil until SetGetRetry; a pointer keeps Endpoint in its size class
	getRNG   *sim.Rand

	lateWatch map[lateKey]func()
	lateOrder []lateKey // FIFO eviction when a watched reply never arrives

	dropped   *metrics.Counter
	lateDrops *metrics.Counter
}

// NextToken allocates an endpoint-unique token. All users of shared reply
// portals (RPC callers, data-transfer match bits, lock clients) draw from
// this one space so co-located client processes never collide.
func (ep *Endpoint) nextTok() uint64 {
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
	id := ep.nextTok()
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

// NextToken is the exported form of the endpoint token allocator.
func (ep *Endpoint) NextToken() uint64 { return ep.nextTok() }

// ErrNoMatch is reported when a Get targets a portal index / match bits with
// no attached match entry.
var ErrNoMatch = errors.New("portals: no matching match entry")

// ErrBounds is reported when a Get reads outside the target MD's payload.
var ErrBounds = errors.New("portals: get outside memory descriptor bounds")

// ErrGetTimeout is reported when a one-sided Get exhausts its retry budget
// (SetGetRetry) without a reply.
var ErrGetTimeout = errors.New("portals: get timeout")

// NewEndpoint creates the portals endpoint for node and installs it as the
// node's network handler.
func NewEndpoint(net *netsim.Network, node *netsim.Node) *Endpoint {
	scope := net.Metrics().Scope("portals").Scope(node.Name)
	pl, _ := net.Attachment().(*pool)
	if pl == nil {
		pl = &pool{}
		net.SetAttachment(pl)
	}
	ep := &Endpoint{
		net:       net,
		node:      node,
		tables:    make(map[Index][]*ME),
		pool:      pl,
		dropped:   scope.Counter("no_match_drops"),
		lateDrops: scope.Counter("late_drops"),
	}
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

// lateWatchCap bounds the late-reply watch table (entries whose reply was
// lost outright, not late, would otherwise accumulate forever).
const lateWatchCap = 4096

// watchLate registers fn to run if a message lands at (pt, bits) after its
// match entry was unlinked by a timeout. One-shot.
func (ep *Endpoint) watchLate(pt Index, bits MatchBits, fn func()) {
	if ep.lateWatch == nil {
		ep.lateWatch = make(map[lateKey]func())
	}
	k := lateKey{pt: pt, bits: bits}
	ep.lateWatch[k] = fn
	ep.lateOrder = append(ep.lateOrder, k)
	if len(ep.lateOrder) > lateWatchCap {
		delete(ep.lateWatch, ep.lateOrder[0])
		ep.lateOrder = ep.lateOrder[1:]
	}
}

func (ep *Endpoint) dropNoMatch(pt Index, bits MatchBits) {
	if fn, ok := ep.lateWatch[lateKey{pt: pt, bits: bits}]; ok {
		delete(ep.lateWatch, lateKey{pt: pt, bits: bits})
		ep.lateDrops.Inc()
		fn()
	}
	ep.dropped.Inc()
}

// Attach binds a match entry at portal index pt. Incoming operations match
// when (msgBits &^ ignore) == (bits &^ ignore). Entries are searched in
// attach order; the first match wins.
func (ep *Endpoint) Attach(pt Index, bits, ignore MatchBits, md *MD) *ME {
	me := &ME{bits: bits, ignore: ignore, md: md, ep: ep, pt: pt}
	ep.tables[pt] = append(ep.tables[pt], me)
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
	ep.tables[pt] = append(ep.tables[pt], &s.me)
	return s
}

// Expose attaches payload at (pt, bits), exact match, for remote Gets to read
// until the caller Closes the slot. While exposed the slot has no event
// queue: a Put landing on it is dropped. Bits must be fresh (NextToken): a
// Get still in flight for an earlier exposure of the recycled slot carries
// that exposure's bits and finds no match.
func (ep *Endpoint) Expose(pt Index, bits MatchBits, payload netsim.Payload) *Slot {
	s := ep.Post(pt, bits, false)
	s.md = MD{Payload: payload}
	return s
}

// Len reports the events queued in the slot.
func (s *Slot) Len() int { return s.eq.Len() }

// Wait blocks p until an event lands in the slot and returns it; the caller
// Releases it. With timeout > 0 it gives up after that long and reports
// false, and the slot is then unlinked and abandoned to the collector,
// never reused: a message that landed in the very instant of the timeout
// sits in its queue, and the next user of the slot would read it as its own.
func (s *Slot) Wait(p *sim.Proc, timeout time.Duration) (*Event, bool) {
	if timeout <= 0 {
		return s.eq.Recv(p).(*Event), true
	}
	return s.landed(s.eq.RecvTimeout(p, timeout))
}

// landed turns a slot wait's outcome into Wait's, abandoning the slot after a
// timeout. A continuation waits with s.eq.RecvCont and takes its result as
// s.landed(c.Msg()).
func (s *Slot) landed(v interface{}, ok bool) (*Event, bool) {
	if !ok {
		s.me.Unlink()
		s.me.ep = nil
		return nil, false
	}
	return v.(*Event), true
}

// Close unlinks the slot, releases the events nobody took, drops an exposed
// payload and returns the slot to the free list as a receive. Closing twice,
// or after Wait timed out, is a bug.
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
	for _, me := range ep.tables[pt] {
		if (bits &^ me.ignore) == (me.bits &^ me.ignore) {
			return me
		}
	}
	return nil
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

// Put initiates a one-sided put of payload (plus hdr, which travels in the
// message header) into the match entry at (target, pt, bits). It is
// asynchronous: the caller continues immediately.
func (ep *Endpoint) Put(target netsim.NodeID, pt Index, bits MatchBits, hdr interface{}, payload netsim.Payload) {
	ev := ep.record(pt, bits, payload)
	ev.Hdr = hdr
	ep.send(target, ev)
}

// getReplyPortal is the reserved portal index where Get replies land,
// matched by the request's token.
const getReplyPortal Index = 1020

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
// for timeout(), then take the reply or, on a timeout, abandon the slot and
// either pause before the next attempt or give up with ErrGetTimeout (settle).
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
	ep.nextToken++
	g.slot = ep.Post(getReplyPortal, MatchBits(ep.nextToken), true)
	req := ep.record(g.pt, g.bits, netsim.Payload{})
	req.kind, req.offset, req.length, req.token = wireGet, g.offset, g.length, ep.nextToken
	ep.send(g.target, req)
}

// settle takes the outcome of the slot wait — the reply, or ok false after a
// timeout (the wait has abandoned the slot) — and reports whether another
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
		ep.dropNoMatch(ev.pt, ev.Bits)
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
	reply := ep.record(getReplyPortal, MatchBits(req.token), netsim.Payload{})
	reply.kind = wireGetReply
	if me := ep.match(req.pt, req.Bits); me == nil {
		ep.dropNoMatch(req.pt, req.Bits)
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

// Echo measures a small-message round trip to target's echo responder; it
// is used by the Table 2 microbenchmarks. The target must have called
// ServeEcho.
func (ep *Endpoint) Echo(p *sim.Proc, target netsim.NodeID) (time.Duration, error) {
	start := p.Now()
	_, err := ep.Get(p, target, echoPortal, 0, 0, 1)
	if err != nil {
		return 0, err
	}
	return p.Now().Sub(start), nil
}

// echoPortal is a reserved portal index for Echo.
const echoPortal Index = 1023

// ServeEcho attaches a one-byte echo responder used by Echo.
func (ep *Endpoint) ServeEcho() {
	ep.Attach(echoPortal, 0, ^MatchBits(0), &MD{Payload: netsim.SyntheticPayload(1)})
}
