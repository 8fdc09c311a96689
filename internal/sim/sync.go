package sim

import (
	"fmt"
	"time"
)

// minMailboxCap is the smallest ring-buffer capacity a mailbox allocates. A
// ring of this size stays once allocated; a grown one is dropped when its
// queue empties.
const minMailboxCap = 8

// Mailbox is an unbounded FIFO message queue connecting simulated processes.
// Send never blocks; Recv blocks the calling process until a message is
// available. A Mailbox may have many senders and many receivers; messages go
// to receivers in FIFO order of their arrival at the mailbox.
//
// Messages are stored in a power-of-two ring buffer that grows on demand and
// never shrinks while messages remain, so a drain allocates nothing; a grown
// ring is dropped once the queue empties, so a long-lived daemon mailbox
// that once absorbed a burst does not retain the burst's backing array (or
// the delivered messages) forever.
type Mailbox struct {
	k       *Kernel
	name    string
	buf     []interface{} // power-of-two ring; nil until first queued message
	head    int
	n       int
	waiters []*waiter
	backlog func() // see OnBacklog
}

// waiter is one blocked wait on a Mailbox or a Resource: who resumes — a
// parked process (p), or a continuation run in kernel context (fn) — and what
// the wait brought. A process or a continuation waits on one thing at a time,
// so each owns one waiter record (Proc.w, Cont.w) and every wait reuses it:
// no wait allocates.
type waiter struct {
	p        *Proc
	fn       func()
	m        *Mailbox
	msg      interface{}
	n        int64 // units a Resource wait claims
	ok       bool
	timedOut bool
	hasTO    bool
	cancelTO cancelHandle
	onTO     func() // fireTimeout, bound on the first timed wait
}

// wake schedules whoever waits at the current instant. Both kinds go through
// this one schedule call, so a continuation takes the (time, seq) place the
// parked process's resume would have taken.
func (w *waiter) wake(k *Kernel) {
	kind := evResume
	if w.fn != nil {
		kind = evFn
	}
	k.schedule(k.now, w.fn, w.p, kind)
}

// fireTimeout is the timeout callback of a timed mailbox wait: remove the
// waiter from its mailbox and wake it empty-handed. It is invoked through the
// pre-built onTO closure, so arming a timeout allocates nothing.
func (w *waiter) fireTimeout() {
	m := w.m
	for i, x := range m.waiters {
		if x == w {
			m.waiters = append(m.waiters[:i], m.waiters[i+1:]...)
			break
		}
	}
	w.hasTO = false
	w.timedOut = true
	w.wake(m.k)
}

// Cont is a continuation: a function that runs in kernel context and waits on
// a Mailbox (RecvCont), a Resource (AcquireCont) or the clock (Sleep) the way
// a process parks, without a coroutine of its own. Every wake-up is scheduled
// where the parked process's resume would be, so a process that only waits
// can become a continuation without moving any event (DESIGN.md §4.12). A wait
// that reports ready did not wait: the function goes on inline, as the process
// would have without parking. A Cont waits on one thing at a time and lives
// by value in its owner's record; once bound it allocates nothing but the
// timeout callback of its first timed wait. No process is parked while it
// waits, so a continuation that is never woken is absent from a deadlock
// report.
type Cont struct {
	k *Kernel
	w waiter
}

// Bind makes fn the function c's wake-ups run on k.
func (c *Cont) Bind(k *Kernel, fn func()) { c.k, c.w.fn = k, fn }

// Start runs c's function at the current instant, where Spawn puts a start
// event.
func (c *Cont) Start() { c.Sleep(0) }

// Sleep runs c's function d from now, where a process's Sleep resumes it.
func (c *Cont) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.k.schedule(c.k.now.Add(d), c.w.fn, nil, evFn)
}

// Msg returns what c's last mailbox wait brought — ok is false if it timed
// out — and drops c's reference to the message.
func (c *Cont) Msg() (msg interface{}, ok bool) {
	msg, ok = c.w.msg, c.w.ok
	c.w.msg = nil
	return msg, ok
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
		m.grow()
	}
	m.buf[(m.head+m.n)&(len(m.buf)-1)] = msg
	m.n++
}

func (m *Mailbox) pop() interface{} {
	msg := m.buf[m.head]
	m.buf[m.head] = nil // release the reference now, not at overwrite time
	m.head = (m.head + 1) & (len(m.buf) - 1)
	m.n--
	if m.n == 0 && len(m.buf) > minMailboxCap {
		m.buf, m.head = nil, 0
	}
	return msg
}

// grow re-bases a full ring into one of twice the capacity (minMailboxCap
// for the first).
func (m *Mailbox) grow() {
	nb := make([]interface{}, max(2*len(m.buf), minMailboxCap))
	for i := 0; i < m.n; i++ {
		nb[i] = m.buf[(m.head+i)&(len(m.buf)-1)]
	}
	m.buf = nb
	m.head = 0
}

// popWaiter removes the head waiter without advancing the slice base, so
// the backing array is reused forever (append never reallocates in steady
// state).
func (m *Mailbox) popWaiter() *waiter {
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
		w.wake(m.k)
		return
	}
	m.push(msg)
	if m.backlog != nil {
		m.backlog()
	}
}

// wait registers w for the next message.
func (m *Mailbox) wait(w *waiter) {
	w.m = m
	w.msg, w.ok, w.timedOut, w.hasTO = nil, false, false, false
	m.waiters = append(m.waiters, w)
}

// armTimeout gives up w's wait d from now.
func (m *Mailbox) armTimeout(w *waiter, d time.Duration) {
	if w.onTO == nil {
		w.onTO = w.fireTimeout
	}
	w.hasTO = true
	w.cancelTO = m.k.scheduleCancelable(m.k.now.Add(d), w.onTO)
}

// Recv blocks p until a message is available and returns it.
func (m *Mailbox) Recv(p *Proc) interface{} {
	if m.n > 0 {
		return m.pop()
	}
	w := &p.w
	m.wait(w)
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
	w := &p.w
	m.wait(w)
	m.armTimeout(w, d)
	p.park()
	if w.timedOut {
		return nil, false
	}
	msg = w.msg
	w.msg = nil
	return msg, w.ok
}

// RecvCont is Recv (d <= 0) or RecvTimeout (d > 0) for a continuation. It
// reports whether a message was already queued; if none was, c's function runs
// when one arrives or d passes, where a parked process would resume. Either
// way c.Msg then holds the outcome.
func (m *Mailbox) RecvCont(c *Cont, d time.Duration) (ready bool) {
	w := &c.w
	if m.n > 0 {
		w.msg, w.ok = m.pop(), true
		return true
	}
	m.wait(w)
	if d > 0 {
		m.armTimeout(w, d)
	}
	return false
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
	waiters  []*waiter
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
	if !r.claim(&p.w, n) {
		p.park()
	}
}

// AcquireCont is Acquire for a continuation. It reports whether the n units
// were free; if they were not, c's function runs once they are claimed for
// it, where a parked process would resume.
func (r *Resource) AcquireCont(c *Cont, n int64) (ready bool) {
	return r.claim(&c.w, n)
}

// claim takes n units now, or queues w for them and reports false.
func (r *Resource) claim(w *waiter, n int64) bool {
	if n <= 0 || n > r.capacity {
		panic(fmt.Sprintf("sim: resource %q: acquire %d of capacity %d", r.name, n, r.capacity))
	}
	if len(r.waiters) == 0 && r.avail >= n {
		r.avail -= n
		return true
	}
	w.n = n
	r.waiters = append(r.waiters, w)
	return false
}

// Release returns n units and resumes as many FIFO waiters as now fit.
func (r *Resource) Release(n int64) {
	r.avail += n
	if r.avail > r.capacity {
		panic(fmt.Sprintf("sim: resource %q: release beyond capacity", r.name))
	}
	for len(r.waiters) > 0 && r.waiters[0].n <= r.avail {
		w := r.waiters[0]
		last := len(r.waiters) - 1
		copy(r.waiters, r.waiters[1:])
		r.waiters[last] = nil
		r.waiters = r.waiters[:last]
		r.avail -= w.n
		w.wake(r.k)
	}
}

// WaitGroup counts outstanding simulated tasks; Wait blocks until the count
// reaches zero. Unlike sync.WaitGroup it is single-threaded (kernel order).
// A WaitGroup used again keeps its waiter list's array, so a reused one
// waits without allocating.
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
		for _, p := range wg.waiters {
			p.unpark() // schedules only: nobody waits again before this returns
		}
		clear(wg.waiters)
		wg.waiters = wg.waiters[:0]
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

// Wait blocks p until the future resolves and returns its value and error.
func (f *Future) Wait(p *Proc) (interface{}, error) {
	if !f.done {
		f.waiters = append(f.waiters, p)
		p.park()
	}
	return f.val, f.err
}
