// Package netsim models the communication network of a partitioned MPP
// (paper §2.1, Figure 1): a set of nodes, each with a network interface
// whose egress and ingress sides are FIFO bandwidth servers, connected by a
// full-crossbar fabric with uniform latency.
//
// A message of size s from node A to node B costs
//
//	serialize on A's egress (s / egressBW)
//	+ fabric latency
//	+ serialize on B's ingress (s / ingressBW)
//	+ fixed per-message software overhead at the receiver.
//
// Contention is emergent: when thousands of compute nodes burst I/O at one
// I/O node (paper §3.2), their transfers serialize on that node's ingress
// server, exactly the queueing effect server-directed I/O is designed to
// control.
package netsim

import (
	"encoding/binary"
	"fmt"
	"time"

	"lwfs/internal/metrics"
	"lwfs/internal/sim"
)

// NodeID identifies a node in the network.
type NodeID int

// Payload describes message data of one of three kinds. A synthetic payload
// is Size bytes without content: benchmarks move terabytes of virtual data
// without allocating it. A byte payload carries real content in Data
// (len(Data) <= Size; the rest reads as zeros). A seeded run is Size bytes of
// a content seed's splitmix64 stream (trace.DataFor) from any offset: it is
// carried, cut and stored as arithmetic, and CopyTo makes its bytes only
// where a consumer needs them. Word w of seed s's stream is word 0 of seed
// s+w·γ, so a run keeps its first word's seed and the bytes it skips there.
type Payload struct {
	Size   int64  // bytes on the wire
	Data   []byte // real content, or nil
	seed   uint64 // a seeded run: its first word is word 0 of this seed's stream
	skip   uint8  // a seeded run: bytes of its first word before the run starts
	seeded bool   // the kind is explicit: a folded seed can be 0
}

// gamma is splitmix64's increment (γ): a stream adds it before each word.
const gamma = 0x9e3779b97f4a7c15

// BytesPayload wraps real bytes in a payload.
func BytesPayload(b []byte) Payload { return Payload{Size: int64(len(b)), Data: b} }

// SyntheticPayload describes size bytes with no backing content.
func SyntheticPayload(size int64) Payload { return Payload{Size: size} }

// SeededPayload is the first n bytes of seed's stream, trace.DataFor(seed, n)
// without its bytes. Seed 0 is DataFor's synthetic marker: a synthetic payload.
func SeededPayload(seed uint64, n int64) Payload {
	if seed == 0 {
		return SyntheticPayload(n)
	}
	return Payload{Size: n, seed: seed, seeded: true}
}

// Synthetic reports whether p has no content at all.
func (p Payload) Synthetic() bool { return p.Data == nil && !p.seeded }

// Seeded reports whether p is a seeded run.
func (p Payload) Seeded() bool { return p.seeded }

// Run is p without Data: a holder that keeps it keeps no sender's bytes,
// and escape analysis can tell.
func (p Payload) Run() Payload {
	return Payload{Size: p.Size, seed: p.seed, skip: p.skip, seeded: p.seeded}
}

// Slice is the n bytes of p at off: a run starting off bytes further into
// the stream, a sub-slice of Data (cut short where Data ends), or, where
// Data has none of them, n synthetic bytes.
func (p Payload) Slice(off, n int64) Payload {
	if p.seeded {
		at := int64(p.skip) + off
		return Payload{Size: n, seed: p.seed + uint64(at>>3)*gamma, skip: uint8(at & 7), seeded: true}
	}
	lo, hi := min(off, int64(len(p.Data))), min(off+n, int64(len(p.Data)))
	if lo >= hi {
		return SyntheticPayload(n)
	}
	return Payload{Size: n, Data: p.Data[lo:hi]}
}

// Append is p followed by q as one run, when q is seeded and p is empty
// and not seeded, or a run that q continues in the stream.
func (p Payload) Append(q Payload) (Payload, bool) {
	if p.Size == 0 && !p.seeded && q.seeded {
		return q, true
	}
	next := p.Slice(p.Size, 0)
	ok := p.seeded && q.seeded && next.seed == q.seed && next.skip == q.skip
	if ok {
		p.Size += q.Size
	}
	return p, ok
}

// Bytes is p's content as bytes: Data itself, a seeded run's bytes
// generated into a fresh buffer, or nil for a synthetic payload.
func (p Payload) Bytes() []byte {
	if !p.seeded {
		return p.Data
	}
	b := make([]byte, p.Size)
	p.CopyTo(b)
	return b
}

// CopyTo writes p's first min(len(dst), Size) bytes into dst and returns how
// many: Data copied and zero past its end, or a seeded run generated. It is
// where every byte of a seeded payload is made.
func (p Payload) CopyTo(dst []byte) int {
	dst = dst[:min(int64(len(dst)), p.Size)]
	if !p.seeded {
		clear(dst[copy(dst, p.Data):])
		return len(dst)
	}
	var w [8]byte
	x, b := p.seed, dst
	for skip := p.skip; len(b) > 0; skip = 0 {
		x += gamma
		z := (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(w[:], z^(z>>31))
		b = b[copy(b, w[skip:]):]
	}
	return len(dst)
}

// Message is a single network transfer.
type Message struct {
	From, To NodeID
	Size     int64       // wire size in bytes (headers + payload)
	Body     interface{} // protocol-level content (request structs, Payload, ...)
}

// Handler consumes messages delivered to a node. It runs in kernel context
// and must not block; long work should be queued to a service process.
type Handler func(m Message)

// Config describes a node's network interface.
type Config struct {
	EgressBW   float64       // bytes/second out of the node
	IngressBW  float64       // bytes/second into the node
	SWOverhead time.Duration // per-message receive processing (interrupt, demux)
}

// Node is one endpoint of the network. Its counters live in the network's
// metrics registry under `net.<name>.*`: these are *link-level* message
// counts — every portals Put/Get, data chunk, ack and RPC header crossing
// the NIC — not to be confused with `rpc.<server>.served`, which counts
// completed RPC requests (one served request typically moves several
// net-level messages).
type Node struct {
	ID      NodeID
	Name    string
	egress  *sim.FIFOServer
	ingress *sim.FIFOServer
	cfg     Config
	handler Handler

	sent, received           *metrics.Counter
	bytesSent, bytesReceived *metrics.Counter
}

// Network is a full crossbar of nodes with uniform latency.
type Network struct {
	k       *sim.Kernel
	latency time.Duration
	nodes   []*Node
	trace   func(at sim.Time, m Message, event string)
	fault   func(m Message) bool
	rules   []*Fault
	rng     *sim.Rand
	reg     *metrics.Registry
	dropped *metrics.Counter
	pool    *xfer       // free list of delivery-pipeline records
	attach  interface{} // see Attachment
}

// xfer is one in-flight message's delivery pipeline. The three stage
// callbacks (egress done → fabric latency done → ingress done) are bound
// once when the record is first allocated and the record is recycled
// through Network.pool, so a steady-state Send performs no allocation —
// previously every message allocated three nested closures, at link level
// one set per chunk, ack, and RPC header. The kernel is single-threaded, so
// a plain free list is safe and deterministic.
type xfer struct {
	n      *Network
	m      Message
	dst    *Node
	extra  time.Duration // fault-injected extra latency
	next   *xfer         // free-list link
	stage1 func()        // pre-bound: egress serialization complete
	stage2 func()        // pre-bound: fabric latency elapsed
	stage3 func()        // pre-bound: ingress serialization complete
}

func (n *Network) allocXfer() *xfer {
	t := n.pool
	if t == nil {
		t = &xfer{n: n}
		t.stage1 = t.egressDone
		t.stage2 = t.latencyDone
		t.stage3 = t.ingressDone
		return t
	}
	n.pool = t.next
	t.next = nil
	return t
}

func (t *xfer) egressDone() { t.n.k.After(t.n.latency+t.extra, t.stage2) }

func (t *xfer) latencyDone() {
	d := t.dst
	d.ingress.Schedule(sim.Rate(t.m.Size, d.cfg.IngressBW)+d.cfg.SWOverhead, t.stage3)
}

func (t *xfer) ingressDone() {
	n, d, m := t.n, t.dst, t.m
	// Release before invoking the handler: the handler may send again and
	// reuse this record immediately.
	t.m = Message{} // drop the Body reference
	t.dst = nil
	t.next = n.pool
	n.pool = t
	d.received.Inc()
	d.bytesReceived.Add(m.Size)
	n.traceMsg(m, "rx")
	if d.handler != nil {
		d.handler(m)
	}
}

// SetFault installs an ad-hoc fault injector consulted for every message at
// send time; returning true silently drops the message. Pass nil to remove
// it. Declarative fault rules (InjectFault, Partition, Degrade in faults.go)
// compose with and are preferred over this closure. Timing note: drops
// happen before egress, so the sender pays nothing — appropriate for
// modeling partitions, where packets vanish in the fabric.
func (n *Network) SetFault(f func(m Message) bool) { n.fault = f }

// Metrics returns the network's instrument registry — the cluster-wide
// observability surface every service hanging off this network registers
// into. Snapshots are stamped with the kernel's virtual time.
func (n *Network) Metrics() *metrics.Registry { return n.reg }

// Attachment returns what SetAttachment stored: the network's one opaque
// slot for the protocol layer above it. internal/portals keeps its free
// lists of wire records there, so they belong to one network (one kernel,
// one process at a time) and are garbage when the network is — never shared
// between the kernels of sweep points running side by side.
func (n *Network) Attachment() interface{} { return n.attach }

// SetAttachment fills the slot Attachment reads.
func (n *Network) SetAttachment(v interface{}) { n.attach = v }

// SetTrace installs a message-trace hook, called at send ("tx") and
// delivery ("rx") of every message. Pass nil to disable. The hook runs in
// kernel context and must not block. It must not retain m.Body past its own
// return: protocol layers recycle the record a Body points to as soon as the
// receiver has read it, so a hook describes the body (portals.DescribeBody)
// while it runs and keeps the string.
func (n *Network) SetTrace(f func(at sim.Time, m Message, event string)) { n.trace = f }

func (n *Network) traceMsg(m Message, event string) {
	if n.trace != nil {
		n.trace(n.k.Now(), m, event)
	}
}

// New creates an empty network with the given fabric latency. The network's
// registry also exposes the kernel's event-queue health under `sim.*`:
// events scheduled/dispatched, canceled timeouts awaiting compaction
// (events_canceled), and the event-arena high-water mark (event_pool).
func New(k *sim.Kernel, latency time.Duration) *Network {
	reg := metrics.NewRegistry(k.Now)
	reg.GaugeFunc("sim.events_scheduled", func() int64 { return int64(k.EventsScheduled()) })
	reg.GaugeFunc("sim.events_dispatched", func() int64 { return int64(k.EventsDispatched()) })
	reg.GaugeFunc("sim.events_canceled", func() int64 { return int64(k.EventsCanceled()) })
	reg.GaugeFunc("sim.event_pool", func() int64 { return int64(k.EventPoolSize()) })
	return &Network{k: k, latency: latency, reg: reg, dropped: reg.Counter("net.dropped")}
}

// Kernel returns the simulation kernel the network runs on.
func (n *Network) Kernel() *sim.Kernel { return n.k }

// Latency returns the fabric latency.
func (n *Network) Latency() time.Duration { return n.latency }

// AddNode registers a node and returns it.
func (n *Network) AddNode(name string, cfg Config) *Node {
	if cfg.EgressBW <= 0 || cfg.IngressBW <= 0 {
		panic(fmt.Sprintf("netsim: node %q: non-positive bandwidth", name))
	}
	id := NodeID(len(n.nodes))
	scope := n.reg.Scope("net").Scope(name)
	nd := &Node{
		ID:            id,
		Name:          name,
		egress:        sim.NewFIFOServer(n.k, name+"/egress"),
		ingress:       sim.NewFIFOServer(n.k, name+"/ingress"),
		cfg:           cfg,
		sent:          scope.Counter("msgs_sent"),
		received:      scope.Counter("msgs_received"),
		bytesSent:     scope.Counter("bytes_sent"),
		bytesReceived: scope.Counter("bytes_received"),
	}
	n.nodes = append(n.nodes, nd)
	return nd
}

// Node returns the node with the given id.
func (n *Network) Node(id NodeID) *Node {
	if int(id) < 0 || int(id) >= len(n.nodes) {
		panic(fmt.Sprintf("netsim: unknown node %d", id))
	}
	return n.nodes[id]
}

// Nodes returns all registered nodes.
func (n *Network) Nodes() []*Node { return n.nodes }

// SetHandler installs the message handler for a node. A node without a
// handler drops messages (and panics in debug builds of protocols, which
// always bind handlers first).
func (nd *Node) SetHandler(h Handler) { nd.handler = h }

// IngressBusy reports the total time the node's ingress server was busy.
func (nd *Node) IngressBusy() time.Duration { return nd.ingress.BusyTime() }

// Send transmits m asynchronously: the caller continues immediately and the
// message is delivered to the destination handler after egress
// serialization, latency and ingress serialization. Send may be called from
// kernel context or any process.
func (n *Network) Send(m Message) {
	src := n.Node(m.From)
	dst := n.Node(m.To)
	if m.Size <= 0 {
		m.Size = 1
	}
	drop, extra := n.applyFaults(m)
	if drop {
		n.dropped.Inc()
		return
	}
	src.sent.Inc()
	src.bytesSent.Add(m.Size)
	n.traceMsg(m, "tx")
	t := n.allocXfer()
	t.m, t.dst, t.extra = m, dst, extra
	src.egress.Schedule(sim.Rate(m.Size, src.cfg.EgressBW), t.stage1)
}
