package portals

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
	"unsafe"

	"lwfs/internal/netsim"
	"lwfs/internal/sim"
)

// This file types what the wire carries. A service declares one Op per
// operation at package level, builds its handler table once from method
// expressions (NewOps, Handle) and binds it to a receiver (ServeOps); callers
// use Invoke, and Put headers have a Header each. A value travels in a cell,
// a typed holder recycled through the network's pool like the record that
// carries it, so no body is boxed into an interface; whoever owns a cell last
// releases it (DESIGN.md §4.2, Record lifetime).

// body is a cell as the untyped wire path holds it: always a pointer.
type body interface {
	release()
	clone() body
	view() any        // what a Dispatcher classifies: the value's address
	typeName() string // for traces
}

// cell holds one typed value between its sender and its last owner.
type cell[T any] struct {
	v    T
	home *pool
	kind int32 // its free list: pool.cells[kind]
	live bool
	next *cell[T]
}

// kinds numbers the free lists (two per Op, one per Header), ops the Ops.
var kinds, ops atomic.Int32

func newKind() int32 { return kinds.Add(1) - 1 }

// newCell takes a cell of kind off pl's free list, or makes one, holding *v.
// Like take, it stays out of line, so its temporaries stay off the stack of
// every process parked in Invoke.
//
//go:noinline
func newCell[T any](pl *pool, kind int32, v *T) *cell[T] {
	var c *cell[T]
	if int(kind) < len(pl.cells) {
		c, _ = pl.cells[kind].(*cell[T])
	}
	if c == nil {
		c = &cell[T]{home: pl, kind: kind}
	} else {
		pl.cells[kind], c.next = c.next, nil
	}
	c.v, c.live = *v, true
	pl.out++
	return c
}

// get returns the cell's value, panicking on a released cell.
func (c *cell[T]) get() *T {
	if !c.live {
		panic("portals: use of a released cell")
	}
	return &c.v
}

// release zeroes the cell, so it pins nothing, and returns it to its list;
// under the race detector it stays poisoned instead (recycle).
func (c *cell[T]) release() {
	var zero T
	*c.get(), c.live = zero, false
	pl := c.home
	pl.out--
	if recycle {
		if int(c.kind) >= len(pl.cells) {
			pl.cells = append(pl.cells, make([]any, int(kinds.Load())-len(pl.cells))...)
		}
		c.next, _ = pl.cells[c.kind].(*cell[T])
		pl.cells[c.kind] = c
	}
}

func (c *cell[T]) clone() body      { return newCell(c.home, c.kind, c.get()) }
func (c *cell[T]) typeName() string { return fmt.Sprintf("%T", *c.get()) }

// view is the value's address, so a Dispatcher reaches the value's methods
// (qos.Classified); the untyped path's cell yields the value it holds.
func (c *cell[T]) view() any {
	if a, ok := any(c.get()).(*any); ok {
		return *a
	}
	return &c.v
}

// take copies a reply out of its cell and releases the cell; no cell (an
// empty Resp) is the zero value.
//
//go:noinline
func take[T any](b body) (v T) {
	if b != nil {
		c := b.(*cell[T])
		v = *c.get()
		c.release()
	}
	return v
}

// Op is one operation of an RPC service: a Req answered by a Resp and an
// error. Declare each once, at package level; a Resp of size zero travels
// as no body at all.
type Op[Req, Resp any] struct {
	id        uint16
	req, resp int32 // cell kinds; resp is -1 for an empty Resp
}

// NewOp declares an operation.
func NewOp[Req, Resp any]() *Op[Req, Resp] {
	o := &Op[Req, Resp]{id: uint16(ops.Add(1)), req: newKind(), resp: -1}
	if unsafe.Sizeof(*new(Resp)) > 0 {
		o.resp = newKind()
	}
	return o
}

// Ops is a service's handler table, one handler per Op, for a receiver of
// type S. Build it once, at package init, with NewOps.
type Ops[S any] struct{ fns []serveFn } // by Op id

// serveFn runs one handler on recv, an S, and takes the request's cell.
type serveFn func(recv any, p *sim.Proc, from netsim.NodeID, req body) (body, error)

// route is one table entry, as Handle makes it.
type route[S any] struct {
	id uint16
	fn serveFn
}

// Handle binds op to fn, usually a method expression. fn reads the request
// through its pointer until it returns; the request's cell is released then.
func Handle[S, Req, Resp any](op *Op[Req, Resp], fn func(S, *sim.Proc, netsim.NodeID, *Req) (Resp, error)) route[S] {
	return route[S]{op.id, func(recv any, p *sim.Proc, from netsim.NodeID, b body) (body, error) {
		c := b.(*cell[Req])
		v, err := fn(recv.(S), p, from, c.get())
		pl := c.home
		c.release()
		if op.resp < 0 {
			return nil, err
		}
		return newCell(pl, op.resp, &v), err
	}}
}

// NewOps builds a service's handler table.
func NewOps[S any](routes ...route[S]) *Ops[S] {
	t := &Ops[S]{}
	for _, r := range routes {
		if n := int(r.id) + 1; n > len(t.fns) {
			t.fns = append(t.fns, make([]serveFn, n-len(t.fns))...)
		}
		t.fns[r.id] = r.fn
	}
	return t
}

// errNoOp answers a request for an operation the server's table lacks.
var errNoOp = errors.New("portals: no handler for the requested operation")

// anyOp and anyOps are the untyped path: Serve's Handler and Call's
// interface{} bodies ride the typed one as one Op[any, any].
var (
	anyOp  = NewOp[any, any]()
	anyOps = NewOps(Handle(anyOp, func(h Handler, p *sim.Proc, from netsim.NodeID, req *any) (any, error) {
		return h(p, from, *req)
	}))
)

// Invoke sends *req, copied into a cell, to the server at (target, pt) as op,
// occupying reqSize bytes on the wire besides the portals header, and blocks
// p for the reply, which the server makes occupy respSize. Under a retry
// policy (Caller.SetRetry) lost requests or replies are retried, and the
// server deduplicates re-executions (Call).
func Invoke[Req, Resp any](c *Caller, p *sim.Proc, target netsim.NodeID, pt Index, op *Op[Req, Resp], req *Req, reqSize, respSize int64) (Resp, error) {
	cell := newCell(c.ep.pool, op.req, req)
	var b body
	var err error
	if c.retry.Enabled() {
		b, err = c.retried(p, target, pt, op.id, cell, reqSize, respSize)
	} else { // no frame between this one and the attempt's, under every parked caller
		b, err = c.call(p, target, pt, op.id, cell, reqSize, respSize, 0, 0)
	}
	return take[Resp](b), err
}

// InvokeTimeout is Invoke with a deadline and exactly one attempt, whatever
// retry policy the caller has; it returns ErrRPCTimeout if no reply arrives
// in time (timeout 0 waits for ever). A later reply is dropped at
// ReplyPortal and counted (late_replies): reply tokens are never reused, so
// it can never satisfy a different call.
func InvokeTimeout[Req, Resp any](c *Caller, p *sim.Proc, target netsim.NodeID, pt Index, op *Op[Req, Resp], req *Req, reqSize, respSize int64, timeout time.Duration) (Resp, error) {
	b, err := c.call(p, target, pt, op.id, newCell(c.ep.pool, op.req, req), reqSize, respSize, timeout, 0)
	return take[Resp](b), err
}

// Header is a Put header type: declare one per type, at package level.
type Header[T any] struct{ kind int32 }

// NewHeader declares a Put header type.
func NewHeader[T any]() *Header[T] { return &Header[T]{kind: newKind()} }

// Put initiates a one-sided put of payload, with *hdr as its header, into
// the match entry at (target, pt, bits). It is asynchronous.
func (h *Header[T]) Put(ep *Endpoint, target netsim.NodeID, pt Index, bits MatchBits, hdr *T, payload netsim.Payload) {
	ev := ep.record(pt, bits, payload)
	ev.body = newCell(ep.pool, h.kind, hdr)
	ep.send(target, ev)
}

// Of returns the header of ev, a Put made through h (nil for another Put).
// It points into ev: read it before ev is released. The kind is checked
// first: an RPC request's or reply's cell may hold the same type.
func (h *Header[T]) Of(ev *Event) *T {
	if c, ok := ev.live().body.(*cell[T]); ok && ev.kind == wirePut {
		return c.get()
	}
	return nil
}
