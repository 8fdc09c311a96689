package sim

import (
	"fmt"
	"time"
)

// minMailboxCap is the smallest ring-buffer capacity a mailbox keeps once it
// has allocated one; rings shrink back toward it as queues drain.
const minMailboxCap = 8

// Mailbox is an unbounded FIFO message queue connecting simulated processes.
// Send never blocks; Recv blocks the calling process until a message is
// available. A Mailbox may have many senders and many receivers; messages go
// to receivers in FIFO order of their arrival at the mailbox.
//
// Messages are stored in a power-of-two ring buffer that grows on demand and
// shrinks as it drains, so a long-lived daemon mailbox that once absorbed a
// burst does not retain the burst's backing array (or the delivered
// messages) forever.
type Mailbox struct {
	k       *Kernel
	name    string
	buf     []interface{} // power-of-two ring; nil until first queued message
	head    int
	n       int
	waiters []*mboxWaiter
	backlog func() // see OnBacklog
}

// mboxWaiter records one blocked receiver. Waiters are pooled per process
// (Proc.mw): a process blocks on at most one mailbox at a time, so Recv and
// RecvTimeout never allocate.
type mboxWaiter struct {
	p        *Proc
	m        *Mailbox
	msg      interface{}
	ok       bool
	timedOut bool
	hasTO    bool
	cancelTO cancelHandle
}

// fireTimeout is the timeout callback for RecvTimeout: remove the waiter
// from its mailbox and wake it empty-handed. It is invoked through the
// pre-built Proc.mwTimeout closure, so arming a timeout allocates nothing.
func (w *mboxWaiter) fireTimeout() {
	m := w.m
	for i, x := range m.waiters {
		if x == w {
			m.waiters = append(m.waiters[:i], m.waiters[i+1:]...)
			break
		}
	}
	w.hasTO = false
	w.timedOut = true
	w.p.unpark()
}

// NewMailbox creates a mailbox attached to k. The name appears in traces and
// deadlock reports.
func NewMailbox(k *Kernel, name string) *Mailbox {
	return &Mailbox{k: k, name: name}
}

// OnBacklog registers fn to run, in the sender's context, every time Send
// queues a message because no receiver is waiting. A service that starts its
// receivers on demand spawns one from fn: the new process's start event takes
// the place in the schedule that an idle receiver's resume would have had, so
// starting receivers late leaves virtual time exactly as starting them early.
// A nil fn removes the hook.
func (m *Mailbox) OnBacklog(fn func()) { m.backlog = fn }

// Len reports the number of queued (undelivered) messages.
func (m *Mailbox) Len() int { return m.n }

func (m *Mailbox) push(msg interface{}) {
	if m.n == len(m.buf) {
		m.resize(len(m.buf) * 2)
	}
	m.buf[(m.head+m.n)&(len(m.buf)-1)] = msg
	m.n++
}

func (m *Mailbox) pop() interface{} {
	msg := m.buf[m.head]
	m.buf[m.head] = nil // release the reference now, not at overwrite time
	m.head = (m.head + 1) & (len(m.buf) - 1)
	m.n--
	if len(m.buf) > minMailboxCap && m.n <= len(m.buf)/4 {
		m.resize(len(m.buf) / 2)
	}
	return msg
}

// resize re-bases the ring into a buffer of capacity c (a power of two,
// clamped to minMailboxCap).
func (m *Mailbox) resize(c int) {
	if c < minMailboxCap {
		c = minMailboxCap
	}
	if c == len(m.buf) {
		return
	}
	nb := make([]interface{}, c)
	for i := 0; i < m.n; i++ {
		nb[i] = m.buf[(m.head+i)&(len(m.buf)-1)]
	}
	m.buf = nb
	m.head = 0
}

// popWaiter removes the head waiter without advancing the slice base, so
// the backing array is reused forever (append never reallocates in steady
// state).
func (m *Mailbox) popWaiter() *mboxWaiter {
	w := m.waiters[0]
	last := len(m.waiters) - 1
	copy(m.waiters, m.waiters[1:])
	m.waiters[last] = nil
	m.waiters = m.waiters[:last]
	return w
}

// Send enqueues msg at the current instant. If a receiver is waiting, it is
// handed the message and resumed. Send may be called from kernel context or
// from any process.
func (m *Mailbox) Send(msg interface{}) {
	if len(m.waiters) > 0 {
		w := m.popWaiter()
		w.msg, w.ok = msg, true
		if w.hasTO {
			w.hasTO = false
			m.k.cancel(w.cancelTO)
		}
		w.p.unpark()
		return
	}
	m.push(msg)
	if m.backlog != nil {
		m.backlog()
	}
}

// wait registers p's pooled waiter and returns it.
func (m *Mailbox) wait(p *Proc) *mboxWaiter {
	w := &p.mw
	w.p, w.m = p, m
	w.msg, w.ok, w.timedOut, w.hasTO = nil, false, false, false
	m.waiters = append(m.waiters, w)
	return w
}

// Recv blocks p until a message is available and returns it.
func (m *Mailbox) Recv(p *Proc) interface{} {
	if m.n > 0 {
		return m.pop()
	}
	w := m.wait(p)
	p.park()
	if !w.ok {
		panic(fmt.Sprintf("sim: mailbox %q: process resumed without a message", m.name))
	}
	msg := w.msg
	w.msg = nil
	return msg
}

// RecvTimeout is Recv but gives up after d, returning ok=false.
func (m *Mailbox) RecvTimeout(p *Proc, d time.Duration) (msg interface{}, ok bool) {
	if m.n > 0 {
		return m.pop(), true
	}
	if p.mwTimeout == nil {
		p.mwTimeout = p.mw.fireTimeout
	}
	w := m.wait(p)
	w.hasTO = true
	w.cancelTO = m.k.scheduleCancelable(m.k.now.Add(d), p.mwTimeout)
	p.park()
	if w.timedOut {
		return nil, false
	}
	msg = w.msg
	w.msg = nil
	return msg, w.ok
}

// TryRecv returns a queued message without blocking, or ok=false.
func (m *Mailbox) TryRecv() (msg interface{}, ok bool) {
	if m.n == 0 {
		return nil, false
	}
	return m.pop(), true
}

// Resource is a counted resource (disk arms, NIC DMA engines, server service
// threads) with FIFO waiters. Acquire(n) blocks until n units are free.
type Resource struct {
	k        *Kernel
	name     string
	capacity int64
	avail    int64
	waiters  []*resWaiter

	// Busy-time accounting for utilization reports.
	busySince Time
	busyAccum time.Duration
}

// resWaiter is pooled per process (Proc.rw), like mboxWaiter.
type resWaiter struct {
	p *Proc
	n int64
}

// NewResource creates a resource with the given capacity (units are caller
// defined: bytes in flight, concurrent ops, ...).
func NewResource(k *Kernel, name string, capacity int64) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{k: k, name: name, capacity: capacity, avail: capacity}
}

// Capacity returns the total capacity.
func (r *Resource) Capacity() int64 { return r.capacity }

// Available returns the currently free units.
func (r *Resource) Available() int64 { return r.avail }

// Acquire blocks p until n units are available and claims them.
// n must be in (0, capacity].
func (r *Resource) Acquire(p *Proc, n int64) {
	if n <= 0 || n > r.capacity {
		panic(fmt.Sprintf("sim: resource %q: acquire %d of capacity %d", r.name, n, r.capacity))
	}
	if len(r.waiters) == 0 && r.avail >= n {
		r.take(n)
		return
	}
	w := &p.rw
	w.p, w.n = p, n
	r.waiters = append(r.waiters, w)
	p.park()
}

func (r *Resource) take(n int64) {
	if r.avail == r.capacity {
		r.busySince = r.k.now
	}
	r.avail -= n
}

// Release returns n units and resumes as many FIFO waiters as now fit.
func (r *Resource) Release(n int64) {
	r.avail += n
	if r.avail > r.capacity {
		panic(fmt.Sprintf("sim: resource %q: release beyond capacity", r.name))
	}
	if r.avail == r.capacity {
		r.busyAccum += r.k.now.Sub(r.busySince)
	}
	for len(r.waiters) > 0 && r.waiters[0].n <= r.avail {
		w := r.waiters[0]
		last := len(r.waiters) - 1
		copy(r.waiters, r.waiters[1:])
		r.waiters[last] = nil
		r.waiters = r.waiters[:last]
		r.take(w.n)
		w.p.unpark()
	}
}

// busyTime reports the accumulated virtual time during which at least one
// unit was claimed. If the resource is busy now, time up to Now is included.
func (r *Resource) busyTime() time.Duration {
	t := r.busyAccum
	if r.avail < r.capacity {
		t += r.k.now.Sub(r.busySince)
	}
	return t
}

// WaitGroup counts outstanding simulated tasks; Wait blocks until the count
// reaches zero. Unlike sync.WaitGroup it is single-threaded (kernel order).
type WaitGroup struct {
	count   int
	waiters []*Proc
}

// Add adds delta to the counter.
func (wg *WaitGroup) Add(delta int) {
	wg.count += delta
	if wg.count < 0 {
		panic("sim: WaitGroup counter below zero")
	}
	if wg.count == 0 {
		ws := wg.waiters
		wg.waiters = nil
		for _, p := range ws {
			p.unpark()
		}
	}
}

// Done decrements the counter.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks p until the counter is zero.
func (wg *WaitGroup) Wait(p *Proc) {
	if wg.count == 0 {
		return
	}
	wg.waiters = append(wg.waiters, p)
	p.park()
}

// Barrier releases all participants once n of them have arrived, then
// resets for reuse. It models, e.g., an MPI_Barrier across client processes.
type Barrier struct {
	n       int
	arrived []*Proc
	gen     int
}

// NewBarrier creates a barrier for n participants.
func NewBarrier(n int) *Barrier {
	if n <= 0 {
		panic("sim: barrier size must be positive")
	}
	return &Barrier{n: n}
}

// Await blocks p until n participants (including p) have arrived.
func (b *Barrier) Await(p *Proc) {
	if len(b.arrived)+1 == b.n {
		arrived := b.arrived
		b.arrived = nil
		b.gen++
		for _, q := range arrived {
			q.unpark()
		}
		return
	}
	b.arrived = append(b.arrived, p)
	p.park()
}

// Future is a one-shot value container: one producer completes it, any
// number of consumers Wait for it. Completing twice panics.
type Future struct {
	done    bool
	val     interface{}
	err     error
	waiters []*Proc
}

// NewFuture returns an incomplete future.
func NewFuture() *Future { return &Future{} }

// Complete resolves the future and wakes all waiters.
func (f *Future) Complete(val interface{}, err error) {
	if f.done {
		panic("sim: future completed twice")
	}
	f.done = true
	f.val, f.err = val, err
	ws := f.waiters
	f.waiters = nil
	for _, p := range ws {
		p.unpark()
	}
}

// Done reports whether the future has resolved.
func (f *Future) Done() bool { return f.done }

// Wait blocks p until the future resolves and returns its value and error.
func (f *Future) Wait(p *Proc) (interface{}, error) {
	if !f.done {
		f.waiters = append(f.waiters, p)
		p.park()
	}
	return f.val, f.err
}
