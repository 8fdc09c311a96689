// Package sim provides a deterministic discrete-event simulation kernel.
//
// Simulated processes are coroutines, and the kernel runs exactly one at a
// time: control passes from the kernel to the process whose wake-up event is
// earliest, and back to the kernel when the process blocks (Sleep, Recv,
// Acquire, ...) or exits. Virtual time advances only between events, so a
// simulation is deterministic: the same inputs produce the same event order
// and the same virtual-time measurements, independent of the Go scheduler.
//
// The kernel is the substrate for every other package in this repository:
// the network model (internal/netsim), the Portals messaging layer
// (internal/portals), storage devices (internal/osd) and all LWFS and PFS
// services are simulated processes exchanging events through it.
//
// # Scalability (DESIGN.md §4.12)
//
// The kernel is built to carry tens of thousands of simulated processes and
// tens of millions of events per run:
//
//   - Pending events live in a typed 4-ary min-heap of value structs
//     (heapEntry carries no pointers, so the GC never scans the queue) keyed
//     by (instant, seq); seq breaks ties so runs stay reproducible.
//   - Event bodies (callback, process) live in a slot arena recycled through
//     a free list: steady-state scheduling performs no allocation.
//   - Events scheduled at the current instant — every unpark, Yield, and
//     At(now) — bypass the heap through a FIFO ring; the seq comparison
//     against the heap top preserves global submission order exactly.
//   - Canceled timeouts (scheduleCancelable, cancel) release their arena slot
//     immediately and leave a lazily-deleted heap entry behind; when
//     tombstones outnumber half the heap they are compacted away in one
//     filter+heapify pass.
//   - Every process runs as a runtime coroutine (iter.Pull) and the dispatch
//     loop stays on the goroutine that called Run: resuming a process calls
//     its next function and parking yields back into the loop, a direct
//     coroutine switch with no hand-off through the Go scheduler.
//   - A process whose function returns leaves its Proc record and coroutine
//     on a bounded free list; the next Spawn re-arms them, so short-lived
//     fan-out legs cost nothing on a warm kernel (Kernel.exit).
//   - Code that only waits need not be a process: a continuation (Cont) waits
//     on a Mailbox, a Resource or the clock and is woken by the same schedule
//     call, at the same (time, seq) place, as a parked process's resume, with
//     no coroutine switch.
package sim

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"runtime/debug"
	"sort"
	"time"
)

// Time is an instant of virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration reports the time since the zero instant as a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string { return time.Duration(t).String() }

// MaxTime is the largest representable instant.
const MaxTime = Time(math.MaxInt64)

// Event kinds. A dispatched event either runs a plain callback in kernel
// context (evFn), resumes a parked process (evResume), or starts a freshly
// spawned one (evStart).
const (
	evFn uint8 = iota
	evResume
	evStart
)

// eventSlot is the arena-resident body of a pending heap event. Slots are
// recycled through an intrusive free list; gen increments on every release
// so stale heap entries and cancel handles can detect reuse. inc is the
// incarnation of proc the event is addressed to (see Proc.inc).
type eventSlot struct {
	fn   func()
	proc *Proc
	gen  uint64
	next int32 // free-list link
	inc  uint32
	kind uint8
}

// heapEntry is one element of the pending-event priority queue. It is a
// pure value — no pointers — so the queue costs the garbage collector
// nothing to scan. Entries whose gen no longer matches their slot are
// tombstones of canceled or fired events and are skipped on pop.
type heapEntry struct {
	at  Time
	seq uint64
	gen uint64
	id  int32
}

func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// ringEntry is a same-instant event: it fires at the current virtual time,
// so it never enters the heap and cannot be canceled.
type ringEntry struct {
	seq  uint64
	fn   func()
	proc *Proc
	inc  uint32
	kind uint8
}

// cancelHandle identifies a cancelable heap event without allocating a
// closure. An id of -1 means "nothing to cancel" (the zero value names slot 0).
type cancelHandle struct {
	gen uint64
	id  int32
}

// Kernel is a discrete-event simulation kernel. The zero value is not
// usable; call NewKernel.
type Kernel struct {
	now   Time
	limit Time
	seq   uint64

	// Pending events: heap + arena for future instants, ring for "now".
	slots []eventSlot
	free  int32 // free-list head, -1 when empty
	heap  []heapEntry
	tombs int // canceled entries still lingering in heap

	ring  []ringEntry
	rhead int
	rlen  int

	procs          map[*Proc]struct{}
	idle           []*Proc // exited records whose coroutines wait to be re-armed (LIFO, see exit)
	blocked        int     // processes parked waiting for an event
	blockedDaemons int     // of those, daemons (exempt from deadlock detection)

	failure error
	dead    bool // Shutdown has run

	nScheduled  uint64
	nDispatched uint64
	nCanceled   uint64
}

// NewKernel returns a kernel with an empty event queue at virtual time zero.
func NewKernel() *Kernel {
	return &Kernel{
		procs: make(map[*Proc]struct{}),
		free:  -1,
	}
}

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// EventsScheduled reports the total number of events ever scheduled.
func (k *Kernel) EventsScheduled() uint64 { return k.nScheduled }

// EventsDispatched reports the total number of events dispatched.
func (k *Kernel) EventsDispatched() uint64 { return k.nDispatched }

// EventsCanceled reports how many scheduled events were canceled before
// firing (timeouts beaten by the operation they guarded).
func (k *Kernel) EventsCanceled() uint64 { return k.nCanceled }

// EventPoolSize reports the size of the event arena (live + free slots): the
// high-water mark of simultaneously pending heap events.
func (k *Kernel) EventPoolSize() int { return len(k.slots) }

// --- event queue internals -------------------------------------------------

func (k *Kernel) allocSlot() int32 {
	if k.free >= 0 {
		id := k.free
		k.free = k.slots[id].next
		return id
	}
	k.slots = append(k.slots, eventSlot{})
	return int32(len(k.slots) - 1)
}

func (k *Kernel) releaseSlot(id int32) {
	s := &k.slots[id]
	s.fn = nil
	s.proc = nil
	s.gen++
	s.next = k.free
	k.free = id
}

func (k *Kernel) heapPush(e heapEntry) {
	h := append(k.heap, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !entryLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	k.heap = h
}

func (k *Kernel) siftDown(i int) {
	h := k.heap
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			return
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entryLess(h[j], h[m]) {
				m = j
			}
		}
		if !entryLess(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func (k *Kernel) heapPop() heapEntry {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	k.heap = h[:n]
	if n > 1 {
		k.siftDown(0)
	}
	return top
}

// prune discards tombstoned entries from the heap top so peeks see a live
// event (or an empty heap).
func (k *Kernel) prune() {
	for len(k.heap) > 0 {
		e := k.heap[0]
		if k.slots[e.id].gen == e.gen {
			return
		}
		k.heapPop()
		k.tombs--
	}
}

// compact removes every tombstoned entry and re-heapifies. Triggered when
// canceled timeouts outnumber half the heap.
func (k *Kernel) compact() {
	live := k.heap[:0]
	for _, e := range k.heap {
		if k.slots[e.id].gen == e.gen {
			live = append(live, e)
		}
	}
	k.heap = live
	for i := (len(live) - 2) >> 2; i >= 0; i-- {
		k.siftDown(i)
	}
	k.tombs = 0
}

// ringPush and ringPop pass an entry field by field, and ringPop clears only
// the references: a ringEntry by value is too wide for registers, and its spill
// would sit in loop's frame.
func (k *Kernel) ringPush(seq uint64, fn func(), proc *Proc, inc uint32, kind uint8) {
	if k.rlen == len(k.ring) {
		k.growRing()
	}
	e := &k.ring[(k.rhead+k.rlen)&(len(k.ring)-1)]
	e.seq, e.fn, e.proc, e.inc, e.kind = seq, fn, proc, inc, kind
	k.rlen++
}

func (k *Kernel) growRing() {
	n := len(k.ring) * 2
	if n == 0 {
		n = 64
	}
	nr := make([]ringEntry, n)
	for i := 0; i < k.rlen; i++ {
		nr[i] = k.ring[(k.rhead+i)&(len(k.ring)-1)]
	}
	k.ring = nr
	k.rhead = 0
}

func (k *Kernel) ringPop() (fn func(), proc *Proc, kind uint8) {
	e := &k.ring[k.rhead]
	fn, proc, kind = e.fn, addressee(e.proc, e.inc), e.kind
	e.fn, e.proc = nil, nil
	k.rhead = (k.rhead + 1) & (len(k.ring) - 1)
	k.rlen--
	return
}

// addressee resolves the process an event was scheduled for: nil once that
// incarnation has exited, whoever occupies the record now.
func addressee(proc *Proc, inc uint32) *Proc {
	if proc != nil && proc.inc != inc {
		return nil
	}
	return proc
}

// schedule is the single entry point for future work. Instants at or before
// the current time go to the same-instant ring; later instants get an arena
// slot and a heap entry. A dead kernel counts the event and drops it.
func (k *Kernel) schedule(t Time, fn func(), proc *Proc, kind uint8) {
	k.seq++
	k.nScheduled++
	if k.dead {
		return
	}
	var inc uint32
	if proc != nil {
		inc = proc.inc
	}
	if t <= k.now {
		k.ringPush(k.seq, fn, proc, inc, kind)
		return
	}
	id := k.allocSlot()
	s := &k.slots[id]
	s.fn, s.proc, s.inc, s.kind = fn, proc, inc, kind
	k.heapPush(heapEntry{at: t, seq: k.seq, id: id, gen: s.gen})
}

// scheduleCancelable is schedule, but always through the heap (ring entries
// cannot be canceled) and returning a handle for cancel.
func (k *Kernel) scheduleCancelable(t Time, fn func()) cancelHandle {
	if t < k.now {
		t = k.now
	}
	k.seq++
	k.nScheduled++
	if k.dead {
		return cancelHandle{id: -1}
	}
	id := k.allocSlot()
	s := &k.slots[id]
	s.fn, s.kind = fn, evFn
	k.heapPush(heapEntry{at: t, seq: k.seq, id: id, gen: s.gen})
	return cancelHandle{id: id, gen: s.gen}
}

// cancel revokes a pending cancelable event. The slot returns to the pool
// immediately; the heap entry becomes a tombstone, compacted away when
// tombstones outnumber half the heap. Canceling an event that already fired
// (or was already canceled) is a no-op: gen has moved on.
func (k *Kernel) cancel(h cancelHandle) {
	if h.id < 0 {
		return
	}
	s := &k.slots[h.id]
	if s.gen != h.gen {
		return
	}
	k.releaseSlot(h.id)
	k.tombs++
	k.nCanceled++
	if k.tombs > 64 && k.tombs*2 > len(k.heap) {
		k.compact()
	}
}

// At schedules fn to run in kernel context at instant t. Scheduling in the
// past is an error; fn runs immediately at the current instant instead.
func (k *Kernel) At(t Time, fn func()) { k.schedule(t, fn, nil, evFn) }

// After schedules fn to run d after the current instant.
func (k *Kernel) After(d time.Duration, fn func()) { k.schedule(k.now.Add(d), fn, nil, evFn) }

// Proc is a simulated process: a coroutine scheduled cooperatively by the
// kernel. All blocking methods (Sleep, Mailbox.Recv, Resource.Acquire, ...)
// must be called from the process's own function.
// A *Proc is valid only while its function runs: once that returns, the record
// (and its coroutine) may carry a later Spawn.
type Proc struct {
	k       *Kernel
	name    string
	fn      func(p *Proc)
	next    func() (struct{}, bool) // runs the coroutine until it yields; nil until the record first starts
	stop    func()                  // retires the coroutine (Shutdown)
	yield   func(struct{}) bool     // body's yield: parks the coroutine
	inc     uint32                  // incarnation: bumped at exit, so an event addressed to an earlier occupant is stale
	running bool                    // inside fn; blocking on a record that is not panics
	daemon  bool

	// The pooled waiter record: a process blocks on at most one thing at a
	// time, so every Mailbox/Resource wait reuses it (see sync.go).
	w waiter
}

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Spawn creates a process named name running fn, starting at the current
// instant (or later if the kernel is busy with earlier events). fn runs as its
// own coroutine, under the kernel's cooperative schedule.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.SpawnAt(k.now, name, fn)
}

// SpawnDaemon is Spawn for service processes that run for the lifetime of
// the simulation (RPC workers, lock managers). A daemon blocked forever does
// not count as a deadlock: when only daemons remain parked and the event
// queue is empty, Run returns normally.
func (k *Kernel) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	p := k.Spawn(name, fn)
	p.daemon = true
	return p
}

// SpawnAt is Spawn but the process starts at instant t. It takes over the most
// recently exited record and its idle coroutine when there is one; otherwise
// the coroutine is created when the start event fires.
func (k *Kernel) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	var p *Proc
	if n := len(k.idle); n > 0 && !k.dead {
		p, k.idle = k.idle[n-1], k.idle[:n-1]
		p.name, p.fn, p.daemon = name, fn, false
	} else {
		p = &Proc{k: k, name: name, fn: fn}
		p.w.p = p
	}
	if !k.dead {
		k.procs[p] = struct{}{}
	}
	k.schedule(t, nil, p, evStart)
	return p
}

// body is a record's coroutine: run the occupant's function and, when the
// record went on the idle list, yield there until the next occupant's start
// event resumes it. It ends with a record that is not recycled, or when
// Shutdown stops it idle. body's frame lies under every process's stack, so
// exit work is kept out of it (exit, unwound).
func (p *Proc) body(yield func(struct{}) bool) {
	p.yield = yield
	defer p.unwound()
	for {
		p.running = true
		p.fn(p)
		if !p.k.exit(p, true) || !yield(struct{}{}) {
			return
		}
	}
}

// errRetired is the panic a parked process unwinds with when Shutdown stops
// its coroutine: its deferred calls run, nothing after its park does, and
// unwound counts it as retirement, not failure.
var errRetired = errors.New("sim: process retired by Shutdown")

// unwound is body's deferred call, with work to do only for an incarnation
// that did not return: a panic, Shutdown retiring it where it parked
// (errRetired), or runtime.Goexit. None is recycled. iter.Pull passes a
// Goexit on to next's caller, so it ends the goroutine that called Run.
func (p *Proc) unwound() {
	if !p.running {
		return
	}
	if r := recover(); r != nil && r != errRetired {
		p.k.failProc(p, r)
	} else {
		p.k.exit(p, false)
	}
}

// maxIdleProcs bounds the idle list, so what a run keeps parked (coroutines
// with their grown stacks) does not grow with its widest moment. A constant,
// not an option: reuse rates are flat from a few dozen up (DESIGN.md §4.12).
const maxIdleProcs = 256

// exit ends p's incarnation: events still addressed to it go stale, and the
// record is poisoned (not running) until its next occupant starts. It reports
// whether p went on the idle list — LIFO, so a warm stack is reused first; a
// record that does not fit dies with its coroutine.
func (k *Kernel) exit(p *Proc, recyclable bool) bool {
	p.running = false
	p.inc++
	p.fn = nil
	delete(k.procs, p)
	if !recycleProcs || !recyclable || k.dead || len(k.idle) >= maxIdleProcs {
		return false
	}
	k.idle = append(k.idle, p)
	return true
}

// failProc records a process panic so Run can surface it.
func (k *Kernel) failProc(p *Proc, r interface{}) {
	if k.failure == nil {
		k.failure = fmt.Errorf("sim: process %q panicked at %v: %v\n%s",
			p.name, k.now, r, debug.Stack())
	}
	k.exit(p, false)
}

// park blocks the calling process until another event resumes it: the
// coroutine yields to the dispatch loop, which switches back when the
// process's resume event fires. It must only be called from p's own function,
// and the caller is responsible for having arranged a wake-up (a timer event,
// a waiter registration, ...). Once Shutdown has stopped the coroutine, yield
// reports false and the process unwinds from its park — and so does a
// deferred call of the retiring process that tries to block.
func (p *Proc) park() {
	if !p.running {
		panic("sim: a process blocked after it exited")
	}
	k := p.k
	k.blocked++
	if p.daemon {
		k.blockedDaemons++
	}
	if !p.yield(struct{}{}) {
		panic(errRetired)
	}
}

// unpark schedules p to resume at the current instant. Called from kernel
// context or from another process's execution (which is also, transitively,
// kernel context).
func (p *Proc) unpark() { p.k.schedule(p.k.now, nil, p, evResume) }

// unparkAt schedules p to resume at instant t.
func (p *Proc) unparkAt(t Time) { p.k.schedule(t, nil, p, evResume) }

// Sleep suspends the process for duration d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.unparkAt(p.k.now.Add(d))
	p.park()
}

// loop is the dispatch loop. It runs only on the goroutine that called Run: a
// process's event calls its next, which runs the coroutine until it parks,
// exits or fails. It returns when the queue is empty, the time limit is
// reached or the simulation failed; a panic in a callback is that failure,
// recovered here for every callback at once.
func (k *Kernel) loop() {
	defer func() {
		if r := recover(); r != nil {
			k.failure = fmt.Errorf("sim: event callback panicked at %v: %v\n%s",
				k.now, r, debug.Stack())
		}
	}()
	for k.failure == nil {
		var (
			fn   func()
			proc *Proc
			kind uint8
		)
		k.prune()
		if k.rlen > 0 {
			// The ring holds events at the current instant; the heap may
			// hold an earlier-submitted event at this same instant.
			fromHeap := false
			if len(k.heap) > 0 {
				t := k.heap[0]
				if t.at == k.now && t.seq < k.ring[k.rhead].seq {
					fromHeap = true
				}
			}
			if fromHeap {
				e := k.heapPop()
				s := &k.slots[e.id]
				fn, proc, kind = s.fn, addressee(s.proc, s.inc), s.kind
				k.releaseSlot(e.id)
			} else {
				fn, proc, kind = k.ringPop()
			}
		} else if len(k.heap) > 0 {
			t := k.heap[0]
			if t.at > k.limit {
				// Leave the event in place so a later Run can continue.
				k.now = k.limit
				return
			}
			k.now = t.at
			e := k.heapPop()
			s := &k.slots[e.id]
			fn, proc, kind = s.fn, addressee(s.proc, s.inc), s.kind
			k.releaseSlot(e.id)
		} else {
			return
		}
		k.nDispatched++
		if kind == evFn {
			fn()
			continue
		}
		q := proc
		if q == nil {
			continue // stale: addressed to an incarnation that already exited
		}
		if kind == evResume {
			k.blocked--
			if q.daemon {
				k.blockedDaemons--
			}
		} else if q.next == nil { // evStart on a fresh record; a recycled one's coroutine idles in body
			q.next, q.stop = iter.Pull(q.body)
		}
		q.next()
	}
}

// DeadlockError is returned by Run when processes remain blocked but no
// events are pending.
type DeadlockError struct {
	At      Time
	Blocked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d process(es) blocked forever: %v",
		e.At, len(e.Blocked), e.Blocked)
}

// ErrShutdown is returned by Run on a kernel that has been shut down.
var ErrShutdown = errors.New("sim: kernel is shut down")

// Shutdown ends the simulation for good: the coroutine of every started
// process is stopped where it parked and unwinds from there — its deferred
// calls run, nothing after the park does — and the pending events are
// dropped. The idle coroutines of exited processes are stopped next. Each stop
// returns once its coroutine has ended, so deferred calls still see a single
// logical thread; processes that never started have no coroutine to retire.
// It must not be called while Run is in progress, nor from inside the
// simulation.
//
// A dead kernel guarantees three things: it owns no goroutine, it no longer
// references its processes or events (what they reached is garbage once the
// caller lets go too), and Run returns ErrShutdown at once. Now and the
// event counters keep their final values; an event or process handed to a
// dead kernel is counted and dropped. Shutdown on a dead kernel does nothing.
func (k *Kernel) Shutdown() {
	if k.dead {
		return
	}
	k.dead = true
	for p := range k.procs {
		if p.stop != nil {
			p.stop()
		}
	}
	for _, p := range k.idle {
		p.stop()
	}
	k.procs = make(map[*Proc]struct{})
	k.idle, k.slots, k.heap, k.ring = nil, nil, nil, nil
	k.free, k.tombs, k.rhead, k.rlen = -1, 0, 0, 0
}

// Run drains the event queue until it is empty or until limit is reached
// (use MaxTime for no limit). It returns an error if any process panicked or
// if the simulation deadlocked (blocked processes with no pending events).
func (k *Kernel) Run(limit Time) error {
	if k.dead {
		return ErrShutdown
	}
	k.limit = limit
	k.loop()
	if k.failure != nil {
		return k.failure
	}
	if k.rlen == 0 && len(k.heap) == 0 && k.blocked > k.blockedDaemons {
		var names []string
		for p := range k.procs {
			if !p.daemon {
				names = append(names, p.name)
			}
		}
		sort.Strings(names)
		return &DeadlockError{At: k.now, Blocked: names}
	}
	return nil
}
