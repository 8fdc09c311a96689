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
	"fmt"
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

// EventType discriminates event-queue entries.
type EventType int

const (
	// EventPut signals that a Put landed in one of our match entries.
	EventPut EventType = iota
	// EventGet signals that a remote Get read from one of our match entries.
	EventGet
)

func (t EventType) String() string {
	switch t {
	case EventPut:
		return "PUT"
	case EventGet:
		return "GET"
	default:
		return fmt.Sprintf("EventType(%d)", int(t))
	}
}

// Event is an event-queue entry describing a completed remote operation.
type Event struct {
	Type      EventType
	Initiator netsim.NodeID
	Bits      MatchBits
	Hdr       interface{}    // out-of-band header data carried by a Put
	Payload   netsim.Payload // data deposited by a Put (zero for Get events)
	Offset    int64          // offset read by a Get
	Length    int64          // length read by a Get
}

// MD is a memory descriptor: the data a match entry exposes to remote Gets
// and the event queue that learns about remote operations.
type MD struct {
	Payload netsim.Payload // readable contents for remote Gets
	EQ      *sim.Mailbox   // receives *Event; may be nil to suppress events
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

// MD returns the match entry's memory descriptor.
func (me *ME) MD() *MD { return me.md }

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

// wire message bodies

type putMsg struct {
	pt      Index
	bits    MatchBits
	hdr     interface{}
	payload netsim.Payload
}

type getReq struct {
	pt        Index
	bits      MatchBits
	offset    int64
	length    int64
	token     uint64
	initiator netsim.NodeID
}

type getReply struct {
	token   uint64
	payload netsim.Payload
	err     string
}

type getPending struct {
	fut *sim.Future
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

	pending   map[uint64]*getPending
	nextToken uint64
	tokSeq    uint64

	getRetry RetryPolicy
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
	ep := &Endpoint{
		net:       net,
		node:      node,
		tables:    make(map[Index][]*ME),
		pending:   make(map[uint64]*getPending),
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
	ep.getRetry, ep.getRNG = pol, rng
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

// AttachOnce is Attach, but the entry unlinks itself after the first
// matching operation (use-once receive buffers).
func (ep *Endpoint) AttachOnce(pt Index, bits, ignore MatchBits, md *MD) *ME {
	me := ep.Attach(pt, bits, ignore, md)
	me.once = true
	return me
}

func (ep *Endpoint) match(pt Index, bits MatchBits) *ME {
	for _, me := range ep.tables[pt] {
		if (bits &^ me.ignore) == (me.bits &^ me.ignore) {
			return me
		}
	}
	return nil
}

// Put initiates a one-sided put of payload (plus hdr, which travels in the
// message header) into the match entry at (target, pt, bits). It is
// asynchronous: the caller continues immediately.
func (ep *Endpoint) Put(target netsim.NodeID, pt Index, bits MatchBits, hdr interface{}, payload netsim.Payload) {
	ep.net.Send(netsim.Message{
		From: ep.node.ID,
		To:   target,
		Size: HeaderSize + payload.Size,
		Body: putMsg{pt: pt, bits: bits, hdr: hdr, payload: payload},
	})
}

// Get performs a one-sided read of [offset, offset+length) from the match
// entry at (target, pt, bits), blocking p until the data arrives. The
// request is a small message; the reply carries the data and pays full
// serialization costs on the target's egress and our ingress — this is the
// server-pull half of server-directed I/O.
func (ep *Endpoint) Get(p *sim.Proc, target netsim.NodeID, pt Index, bits MatchBits, offset, length int64) (netsim.Payload, error) {
	attempts := 1
	if ep.getRetry.Enabled() {
		attempts = ep.getRetry.MaxAttempts
	}
	for a := 0; a < attempts; a++ {
		if a > 0 {
			p.Sleep(ep.getRetry.Pause(a-1, ep.getRNG))
		}
		ep.nextToken++
		token := ep.nextToken
		pend := &getPending{fut: sim.NewFuture()}
		ep.pending[token] = pend
		ep.net.Send(netsim.Message{
			From: ep.node.ID,
			To:   target,
			Size: HeaderSize,
			Body: getReq{pt: pt, bits: bits, offset: offset, length: length, token: token, initiator: ep.node.ID},
		})
		var v interface{}
		var err error
		if ep.getRetry.Enabled() {
			var ok bool
			v, err, ok = pend.fut.WaitTimeout(p, ep.getRetry.Timeout)
			if !ok {
				// Lost request or reply: retry under a fresh token. If the
				// reply is merely late it finds no pending entry and is
				// dropped — tokens are never reused, so it cannot complete a
				// different Get.
				delete(ep.pending, token)
				continue
			}
		} else {
			v, err = pend.fut.Wait(p)
		}
		if err != nil {
			return netsim.Payload{}, err
		}
		return v.(netsim.Payload), nil
	}
	return netsim.Payload{}, ErrGetTimeout
}

// deliver runs in kernel context for every message addressed to this node.
func (ep *Endpoint) deliver(m netsim.Message) {
	switch body := m.Body.(type) {
	case putMsg:
		me := ep.match(body.pt, body.bits)
		if me == nil {
			ep.dropNoMatch(body.pt, body.bits)
			return
		}
		if me.once {
			me.Unlink()
		}
		if me.md != nil && me.md.EQ != nil {
			me.md.EQ.Send(&Event{
				Type:      EventPut,
				Initiator: m.From,
				Bits:      body.bits,
				Hdr:       body.hdr,
				Payload:   body.payload,
			})
		}
	case getReq:
		me := ep.match(body.pt, body.bits)
		reply := getReply{token: body.token}
		if me == nil {
			ep.dropNoMatch(body.pt, body.bits)
			reply.err = ErrNoMatch.Error()
		} else {
			src := me.md.Payload
			if body.offset < 0 || body.length < 0 || body.offset+body.length > src.Size {
				reply.err = ErrBounds.Error()
			} else if src.Data != nil {
				end := body.offset + body.length
				if end > int64(len(src.Data)) {
					end = int64(len(src.Data))
				}
				var data []byte
				if body.offset < end {
					data = src.Data[body.offset:end]
				}
				reply.payload = netsim.Payload{Size: body.length, Data: data}
			} else {
				reply.payload = netsim.SyntheticPayload(body.length)
			}
			if me.once {
				me.Unlink()
			}
			if me.md.EQ != nil {
				me.md.EQ.Send(&Event{
					Type:      EventGet,
					Initiator: m.From,
					Bits:      body.bits,
					Offset:    body.offset,
					Length:    body.length,
				})
			}
		}
		size := HeaderSize + reply.payload.Size
		ep.net.Send(netsim.Message{From: ep.node.ID, To: body.initiator, Size: size, Body: reply})
	case getReply:
		pend, ok := ep.pending[body.token]
		if !ok {
			ep.dropped.Inc()
			return
		}
		delete(ep.pending, body.token)
		if body.err != "" {
			pend.fut.Complete(nil, errors.New(body.err))
			return
		}
		pend.fut.Complete(body.payload, nil)
	default:
		ep.dropped.Inc()
	}
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
