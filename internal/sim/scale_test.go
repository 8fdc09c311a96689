package sim

import (
	"testing"
	"time"
)

// TestMailboxRingGrowShrink pins the ring-buffer behavior behind Mailbox:
// the backing array grows to absorb a burst, preserves FIFO order across
// wrap-around, and is dropped once the queue drains so a long-lived daemon
// mailbox does not retain its high-water mark (the old `queue = queue[1:]`
// implementation never released delivered messages).
func TestMailboxRingGrowShrink(t *testing.T) {
	k := NewKernel()
	m := NewMailbox(k, "ring")

	// Offset the head so the burst wraps around the ring.
	for i := 0; i < 5; i++ {
		m.Send(i)
	}
	for i := 0; i < 5; i++ {
		if got, ok := m.TryRecv(); !ok || got.(int) != i {
			t.Fatalf("warmup recv %d: got %v, %v", i, got, ok)
		}
	}

	const burst = 1000
	for i := 0; i < burst; i++ {
		m.Send(i)
	}
	if m.Len() != burst {
		t.Fatalf("Len = %d, want %d", m.Len(), burst)
	}
	grownCap := len(m.buf)
	if grownCap < burst {
		t.Fatalf("cap %d did not grow to hold %d messages", grownCap, burst)
	}
	if grownCap&(grownCap-1) != 0 {
		t.Fatalf("cap %d is not a power of two", grownCap)
	}

	// Drain in FIFO order; the ring must be released once it empties.
	for i := 0; i < burst; i++ {
		got, ok := m.TryRecv()
		if !ok || got.(int) != i {
			t.Fatalf("recv %d: got %v, %v", i, got, ok)
		}
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after drain", m.Len())
	}
	if len(m.buf) >= grownCap {
		t.Fatalf("cap %d did not shrink from burst high-water %d", len(m.buf), grownCap)
	}

	// Still a working FIFO after shrinking.
	for i := 0; i < 20; i++ {
		m.Send(100 + i)
	}
	for i := 0; i < 20; i++ {
		if got, ok := m.TryRecv(); !ok || got.(int) != 100+i {
			t.Fatalf("post-shrink recv %d: got %v, %v", i, got, ok)
		}
	}
}

// A draining mailbox keeps its ring until the queue is empty: draining a
// 1 024-message burst allocates nothing, and the grown ring is gone
// afterwards.
func TestMailboxDrainAllocatesNothing(t *testing.T) {
	msg := new(int)
	// AllocsPerRun drains one mailbox to warm up and measures the next.
	var boxes []*Mailbox
	for i := 0; i < 2; i++ {
		m := NewMailbox(NewKernel(), "burst")
		for j := 0; j < 1024; j++ {
			m.Send(msg)
		}
		boxes = append(boxes, m)
	}
	next := 0
	if n := testing.AllocsPerRun(1, func() {
		m := boxes[next]
		next++
		for m.Len() > 0 {
			m.TryRecv()
		}
	}); n != 0 {
		t.Errorf("draining 1024 messages allocated %.0f times, want 0", n)
	}
	for _, m := range boxes {
		if m.buf != nil {
			t.Errorf("a drained mailbox holds a %d-slot ring, want none", len(m.buf))
		}
	}
}

// A mailbox that never holds more than a message keeps its smallest ring:
// one in, one out allocates nothing once the ring exists.
func TestMailboxSteadyAllocatesNothing(t *testing.T) {
	m := NewMailbox(NewKernel(), "steady")
	msg := new(int)
	if n := testing.AllocsPerRun(1000, func() {
		m.Send(msg)
		m.TryRecv()
	}); n != 0 {
		t.Errorf("one in, one out allocated %.2f times per message, want 0", n)
	}
}

// afterCancelable schedules fn and returns its cancel as a closure.
func (k *Kernel) afterCancelable(d time.Duration, fn func()) (cancel func()) {
	h := k.scheduleCancelable(k.now.Add(d), fn)
	return func() { k.cancel(h) }
}

// queueLen is the number of live pending events: the heap minus its
// tombstones, plus the same-instant ring.
func (k *Kernel) queueLen() int { return len(k.heap) - k.tombs + k.rlen }

// TestCanceledEventsReturnToPool pins the canceled-timeout lifecycle: cancel
// releases the arena slot immediately (the pool stops growing no matter how
// many schedule/cancel cycles run), the cancellation is counted, and
// tombstoned heap entries are compacted away instead of accumulating until
// their original instant.
func TestCanceledEventsReturnToPool(t *testing.T) {
	k := NewKernel()

	// Steady-state schedule/cancel churn: a hot retry path arming and
	// beating timeouts. All slots must be recycled.
	var cancels []func()
	for round := 0; round < 100; round++ {
		for i := 0; i < 10; i++ {
			cancels = append(cancels, k.afterCancelable(time.Hour, func() {
				t.Error("canceled event fired")
			}))
		}
		for _, c := range cancels {
			c()
		}
		cancels = cancels[:0]
	}
	if got := k.EventsCanceled(); got != 1000 {
		t.Fatalf("EventsCanceled = %d, want 1000", got)
	}
	if pool := k.EventPoolSize(); pool > 64 {
		t.Fatalf("event pool grew to %d slots; canceled slots are not being recycled", pool)
	}
	// Tombstones must have been compacted, not left to linger until their
	// instant (time.Hour away): with every event canceled the heap should
	// be (near) empty well before then.
	if len(k.heap) > 64 {
		t.Fatalf("%d heap entries linger after cancellation; compaction did not run", len(k.heap))
	}
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 0 {
		t.Fatalf("virtual time advanced to %v dispatching canceled events", k.Now())
	}

	// Live events interleaved with canceled ones still fire in order.
	var fired []int
	for i := 0; i < 50; i++ {
		i := i
		cancel := k.afterCancelable(time.Duration(i+1)*time.Millisecond, func() { fired = append(fired, i) })
		if i%2 == 1 {
			cancel()
		}
	}
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 25 {
		t.Fatalf("fired %d events, want 25", len(fired))
	}
	for j, v := range fired {
		if v != 2*j {
			t.Fatalf("fired[%d] = %d, want %d", j, v, 2*j)
		}
	}
}

// TestCancelAfterFireIsNoOp guards the generation check: canceling an event
// that already fired must not tombstone an unrelated event that reused its
// arena slot.
func TestCancelAfterFireIsNoOp(t *testing.T) {
	k := NewKernel()
	fired := 0
	stale := k.afterCancelable(time.Millisecond, func() { fired++ })
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	// The slot is free; this schedule reuses it.
	k.afterCancelable(time.Millisecond, func() { fired++ })
	stale() // must not cancel the new occupant
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired %d events, want 2 (stale cancel hit a reused slot)", fired)
	}
	if k.EventsCanceled() != 0 {
		t.Fatalf("EventsCanceled = %d, want 0", k.EventsCanceled())
	}
}

// TestSameInstantRingOrdering verifies that the heap-bypass ring for
// At(now)/unpark events preserves global submission order against events
// that reached the same instant through the heap.
func TestSameInstantRingOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.After(time.Millisecond, func() {
		// Runs via the heap at t=1ms. Everything scheduled below lands at
		// the same instant, mixing heap (cancelable, After(0)) and ring
		// (At(now)) paths; they must fire in submission order.
		k.At(k.Now(), func() { order = append(order, 0) })
		k.afterCancelable(0, func() { order = append(order, 1) })
		k.At(k.Now(), func() { order = append(order, 2) })
		k.After(0, func() { order = append(order, 3) })
		k.afterCancelable(0, func() { order = append(order, 4) })
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant order = %v, want ascending", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("ran %d events, want 5", len(order))
	}
}
