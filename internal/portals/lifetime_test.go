package portals

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"lwfs/internal/netsim"
	"lwfs/internal/sim"
)

// The tests of DESIGN.md's record-lifetime rule. Under the race detector
// Release poisons and never recycles (recycle_race.go), so every test in the
// tree doubles as a use-after-release detector; these add the schedules the
// rule is most likely to break on.

// echoServer answers every request with its own body at (eps[1], 10).
func echoServer(r *rig, threads int, install func(*Server)) *Server {
	srv := Serve(r.eps[1], 10, "echo", threads, func(_ *sim.Proc, _ netsim.NodeID, req interface{}) (interface{}, error) {
		return req, nil
	})
	install(srv)
	return srv
}

// Every wire record is one Event, whatever it carries, and every parked
// request one Delivery: they stay in the 176- and 96-byte size classes, the
// request a Delivery holds in the 64-byte one. The record says each thing
// once — one body cell, one reply token, one error — or it would not fit.
func TestWireRecordsKeepTheirSizeClasses(t *testing.T) {
	for _, c := range []struct {
		name        string
		size, class uintptr
	}{
		{"Event", unsafe.Sizeof(Event{}), 176},
		{"Delivery", unsafe.Sizeof(Delivery{}), 96},
		{"rpcRequest", unsafe.Sizeof(rpcRequest{}), 64},
	} {
		if c.size > c.class {
			t.Errorf("%s is %d bytes, past its %d-byte size class", c.name, c.size, c.class)
		}
	}
}

// mallocsPer runs warm-up rounds of op, then n more, inside one kernel run on
// r, and reports heap allocations per op over the n.
func mallocsPer(t *testing.T, r *rig, warm, n int, op func(p *sim.Proc) error) float64 {
	t.Helper()
	if !recycle {
		t.Skip("records are poisoned, not recycled, under the race detector")
	}
	var before, after runtime.MemStats
	r.k.Spawn("guard", func(p *sim.Proc) {
		for i := 0; i < warm+n; i++ {
			if i == warm {
				runtime.ReadMemStats(&before)
			}
			if err := op(p); err != nil {
				t.Error(err)
				return
			}
		}
		runtime.ReadMemStats(&after)
	})
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	r.k.Shutdown()
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// A warm null RPC allocates nothing, on the FIFO path and behind a
// dispatcher: the request record, the reply record and the reply slot all
// come back off the network's free lists (12 allocations a call before).
func TestWarmNullRPCAllocatesNothing(t *testing.T) {
	bothPaths(t, func(t *testing.T, install func(*Server)) {
		r := newRig(t, 2, 1000*mb)
		echoServer(r, 2, install)
		c := NewCaller(r.eps[0])
		got := mallocsPer(t, r, 100, 10000, func(p *sim.Proc) error {
			_, err := c.Call(p, r.eps[1].Node(), 10, nil, 128, 128)
			return err
		})
		if got > 0.01 {
			t.Errorf("a warm null RPC makes %.2f allocations, want none", got)
		}
	})
}

// A warm retry-armed RPC allocates nothing either: the caller's outstanding
// list and the server's dedup entry for its node are reused slices, and no
// future is made unless a duplicate finds its original in flight.
func TestWarmRetriedRPCAllocatesNothing(t *testing.T) {
	bothPaths(t, func(t *testing.T, install func(*Server)) {
		r := newRig(t, 2, 1000*mb)
		echoServer(r, 2, install)
		c := NewCaller(r.eps[0])
		c.SetRetry(RetryPolicy{MaxAttempts: 3, Timeout: time.Second}, nil)
		got := mallocsPer(t, r, 100, 10000, func(p *sim.Proc) error {
			_, err := c.Call(p, r.eps[1].Node(), 10, nil, 128, 128)
			return err
		})
		if got > 0.01 {
			t.Errorf("a warm retried RPC makes %.2f allocations, want none", got)
		}
	})
}

// The same for the one-sided pull every server-directed write is made of.
func TestWarmGetAllocatesNothing(t *testing.T) {
	r := newRig(t, 2, 1000*mb)
	r.eps[1].Attach(5, 1, 0, &MD{Payload: netsim.SyntheticPayload(1 << 30)})
	got := mallocsPer(t, r, 100, 10000, func(p *sim.Proc) error {
		_, err := r.eps[0].Get(p, r.eps[1].Node(), 5, 1, 0, 1<<20)
		return err
	})
	if got > 0.01 {
		t.Errorf("a warm Get makes %.2f allocations, want none", got)
	}
}

// The client half of a server-directed write, exposing a payload and closing
// the exposure, rides a recycled slot.
func TestWarmExposeAllocatesNothing(t *testing.T) {
	r := newRig(t, 1, mb)
	ep := r.eps[0]
	data := netsim.BytesPayload(make([]byte, 4096))
	got := mallocsPer(t, r, 100, 10000, func(*sim.Proc) error {
		ep.Expose(5, MatchBits(ep.NextToken()), data).Close()
		return nil
	})
	if got > 0.01 {
		t.Errorf("a warm Expose and Close make %.2f allocations, want none", got)
	}
}

// A Get sent while one exposure was up, landing after it closed and the same
// slot exposed other bytes under fresh bits, finds no match: it carries the
// old exposure's bits, so it can never read the next one's bytes.
func TestLateGetMissesTheNextExposure(t *testing.T) {
	r := newRig(t, 2, mb)
	client, server := r.eps[0], r.eps[1]
	bitsA, bitsB := MatchBits(client.NextToken()), MatchBits(client.NextToken())
	r.k.Spawn("client", func(p *sim.Proc) {
		a := client.Expose(5, bitsA, netsim.BytesPayload([]byte("AAAA")))
		p.Sleep(time.Microsecond) // the server's Get is on the wire
		a.Close()
		b := client.Expose(5, bitsB, netsim.BytesPayload([]byte("BBBB")))
		if b != a {
			t.Error("the second exposure did not reuse the first one's slot: test is vacuous")
		}
		p.Sleep(time.Millisecond)
		b.Close()
	})
	r.k.Spawn("server", func(p *sim.Proc) {
		got, err := server.Get(p, client.Node(), 5, bitsA, 0, 4)
		if !errors.Is(err, ErrNoMatch) || got.Size != 0 || got.Data != nil {
			t.Errorf("late Get for the closed exposure: %q (size %d), %v, want no match", got.Data, got.Size, err)
		}
		if got, err := server.Get(p, client.Node(), 5, bitsB, 0, 4); err != nil || string(got.Data) != "BBBB" {
			t.Errorf("Get for the live exposure: %q, %v", got.Data, err)
		}
	})
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if n := client.dropped.Value(); n != 1 {
		t.Errorf("client dropped %d Gets, want the late one", n)
	}
	freeLists(t, client)
}

// freeLists walks the network's free lists and fails on what a double
// release or a recycled live slot would leave there: a record or slot listed
// twice, a record not poisoned, a slot still linked or with events queued.
func freeLists(t *testing.T, ep *Endpoint) {
	t.Helper()
	seenEv := map[*Event]bool{}
	for ev := ep.pool.events; ev != nil; ev = ev.next {
		if seenEv[ev] {
			t.Fatalf("record %p is on the free list twice", ev)
		}
		seenEv[ev] = true
		if ev.kind != wireFreed || ev.pt != -1 {
			t.Fatalf("free record %p is not poisoned: %+v", ev, ev)
		}
	}
	seenSlot := map[*Slot]bool{}
	for s := ep.pool.slots; s != nil; s = s.next {
		if seenSlot[s] {
			t.Fatalf("slot %p is on the free list twice", s)
		}
		seenSlot[s] = true
		if s.me.ep != nil || s.Len() != 0 {
			t.Fatalf("free slot %p is still posted or holds %d events", s, s.Len())
		}
	}
}

// A released record is poison: the next Release, a server taking it as a
// request and a delivery of it all panic instead of reading another
// message's fields.
func TestReleasedRecordPanicsOnTouch(t *testing.T) {
	r := newRig(t, 1, mb)
	ev := r.eps[0].record(3, 9, netsim.Payload{})
	ev.Release()
	if ev.pt != -1 || ev.Bits != ^MatchBits(0) || ev.kind != wireFreed {
		t.Fatalf("released record is not poisoned: %+v", ev)
	}
	for name, touch := range map[string]func(){
		"Release":     ev.Release,
		"takeRequest": func() { takeRequest(ev) },
		"deliver":     func() { r.eps[0].deliver(netsim.Message{Body: ev}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of a released record did not panic", name)
				}
			}()
			touch()
		}()
	}
}

// A wait that times out closes its slot: unlinked, drained and back on the
// free list, where the next Post takes it under its own bits.
func TestTimedOutSlotIsClosedAndBackOnTheFreeList(t *testing.T) {
	r := newRig(t, 1, mb)
	ep := r.eps[0]
	r.k.Spawn("waiter", func(p *sim.Proc) {
		lost := ep.Post(7, 1, true)
		if ev, ok := lost.Wait(p, time.Millisecond); ok {
			t.Errorf("wait on a slot nobody writes to returned %+v", ev)
		}
		if ep.match(7, 1) != nil {
			t.Error("timed-out slot is still linked")
		}
		if ep.pool.slots != lost || lost.me.ep != nil {
			t.Fatal("timed-out slot is not back on the free list")
		}
		freeLists(t, ep)
		s := ep.Post(7, 2, true)
		if s != lost || ep.match(7, 2) != &s.me || ep.match(7, 1) != nil {
			t.Fatal("the next Post did not take the timed-out slot under its own bits")
		}
		s.Close()
	})
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	freeLists(t, ep)
}

// 1 000 calls from four co-located callers against a server that answers
// every tenth after the caller's timeout: each surviving call gets the body
// of its own token, and every late reply is dropped at the reply portal and
// counted.
func TestLateRepliesNeverReachAnotherCall(t *testing.T) {
	bothPaths(t, func(t *testing.T, install func(*Server)) {
		r := newRig(t, 2, 1000*mb)
		srv := Serve(r.eps[1], 10, "tardy", 8, func(p *sim.Proc, _ netsim.NodeID, req interface{}) (interface{}, error) {
			if req.(int)%10 == 3 {
				p.Sleep(7 * time.Millisecond) // past the 5 ms timeout, into later calls
			}
			return req, nil
		})
		install(srv)
		const callers, each = 4, 250
		var late int64
		for i := 0; i < callers; i++ {
			i := i
			c := NewCaller(r.eps[0])
			r.k.Spawn(fmt.Sprintf("caller%d", i), func(p *sim.Proc) {
				for j := 0; j < each; j++ {
					n := i*each + j
					v, err := callTimeout(c, p, r.eps[1].Node(), 10, n, 5*time.Millisecond)
					switch {
					case n%10 == 3:
						if !errors.Is(err, ErrRPCTimeout) {
							t.Errorf("call %d: %v, %v, want a timeout", n, v, err)
						}
						late++
					case err != nil || v.(int) != n:
						t.Errorf("call %d got %v, %v: another call's reply", n, v, err)
					}
				}
				p.Sleep(20 * time.Millisecond) // let the last late reply land
			})
		}
		if err := r.k.Run(sim.MaxTime); err != nil {
			t.Fatal(err)
		}
		r.k.Shutdown()
		lateCounted := r.count("rpc.client.n0.late_replies")
		if late != callers*each/10 || lateCounted != late {
			t.Errorf("%d calls timed out and %d late replies were counted, want %d of each", late, lateCounted, callers*each/10)
		}
		if got := r.count("portals.n0.late_drops"); got != late {
			t.Errorf("reply portal dropped %d late replies, want %d", got, late)
		}
		freeLists(t, r.eps[0])
	})
}

// A reply delivered in the very instant its call times out lands in the
// slot's queue after the timeout fired and before the caller runs. Closing
// the slot releases it with its cell, so the caller's next call, which may
// take the same slot, never reads it as its own.
func TestReplyInTheInstantOfTheTimeoutIsNotTheNextReply(t *testing.T) {
	r := newRig(t, 2, 1000*mb)
	echoServer(r, 2, func(*Server) {})
	c := NewCaller(r.eps[0])
	r.k.Spawn("caller", func(p *sim.Proc) {
		start := p.Now()
		if _, err := c.Call(p, r.eps[1].Node(), 10, "rtt", 64, 64); err != nil {
			t.Error(err)
			return
		}
		rtt := p.Now().Sub(start) // the net is idle: every such call takes exactly this
		if v, err := callTimeout(c, p, r.eps[1].Node(), 10, "stale", rtt); !errors.Is(err, ErrRPCTimeout) {
			t.Errorf("call with timeout = round trip: %v, %v, want a timeout", v, err)
		}
		if n := r.eps[0].dropped.Value(); n != 0 {
			t.Errorf("the reply was dropped (%d), so it did not race the timeout: test is vacuous", n)
		}
		if n := r.count("rpc.client.n0.late_replies"); n != 1 {
			t.Errorf("late_replies = %d after a reply in the instant of its timeout, want 1", n)
		}
		for i := 0; i < 3; i++ {
			if v, err := c.Call(p, r.eps[1].Node(), 10, i, 64, 64); err != nil || v != i {
				t.Errorf("call %d after the race got %v, %v", i, v, err)
			}
		}
	})
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if out := r.eps[0].pool.out; out != 0 {
		t.Errorf("%d cells still out: the reply of the instant was stranded in its slot", out)
	}
	freeLists(t, r.eps[0])
}

// A late reply is counted where it lands, however many calls timed out
// unanswered before it: one slow call, then 5 000 calls to a portal nobody
// serves, each timing out, and only then the slow call's reply.
func TestLateReplyIsCountedAfterManyUnansweredTimeouts(t *testing.T) {
	r := newRig(t, 2, 1000*mb)
	Serve(r.eps[1], 10, "slow", 1, func(p *sim.Proc, _ netsim.NodeID, req interface{}) (interface{}, error) {
		p.Sleep(time.Second)
		return req, nil
	})
	c := NewCaller(r.eps[0])
	const unanswered = 5000
	r.k.Spawn("caller", func(p *sim.Proc) {
		if _, err := callTimeout(c, p, r.eps[1].Node(), 10, "slow", 10*time.Microsecond); !errors.Is(err, ErrRPCTimeout) {
			t.Errorf("slow call: %v, want a timeout", err)
		}
		for i := 0; i < unanswered; i++ {
			if _, err := callTimeout(c, p, r.eps[1].Node(), 11, i, 10*time.Microsecond); !errors.Is(err, ErrRPCTimeout) {
				t.Fatalf("call %d to an unserved portal: %v, want a timeout", i, err)
			}
		}
		if p.Now() >= sim.Time(time.Second) {
			t.Error("the unanswered calls outlasted the slow reply: test is vacuous")
		}
	})
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if n := r.count("rpc.client.n0.late_replies"); n != 1 {
		t.Errorf("late_replies = %d after %d unanswered timeouts, want 1", n, unanswered)
	}
	if n, drops := r.count("portals.n0.late_drops"), r.count("portals.n0.no_match_drops"); n != 1 || drops != 1 {
		t.Errorf("late_drops = %d, no_match_drops = %d, want 1 and 1", n, drops)
	}
	if out := r.eps[0].pool.out; out != 0 {
		t.Errorf("%d cells still out", out)
	}
	freeLists(t, r.eps[0])
}

// A crash with requests in service, queued behind the workers and (on the
// dispatcher path) admitted but not yet taken discards them all exactly
// once, and the restarted server serves again from the same free lists.
func TestCrashWithQueuedRequestsReleasesEachOnce(t *testing.T) {
	bothPaths(t, func(t *testing.T, install func(*Server)) {
		r := newRig(t, 2, 1000*mb)
		srv := Serve(r.eps[1], 10, "slow", 2, func(p *sim.Proc, _ netsim.NodeID, req interface{}) (interface{}, error) {
			p.Sleep(10 * time.Millisecond)
			return req, nil
		})
		install(srv)
		retry := RetryPolicy{MaxAttempts: 3, Timeout: 100 * time.Millisecond, Backoff: 5 * time.Millisecond}
		const n = 12
		for i := 0; i < n; i++ {
			i := i
			c := NewCaller(r.eps[0])
			c.SetRetry(retry, sim.NewRand(int64(i)))
			r.k.Spawn(fmt.Sprintf("c%d", i), func(p *sim.Proc) {
				// Two in service and ten queued at the crash; the retries
				// (same ReqID, fresh token) meet the restarted server.
				if v, err := c.Call(p, r.eps[1].Node(), 10, i, 64, 64); err != nil || v != i {
					t.Errorf("call %d across the crash: %v, %v", i, v, err)
				}
			})
		}
		r.k.After(5*time.Millisecond, func() { srv.SetDown(true) })
		r.k.After(12*time.Millisecond, func() { srv.SetDown(false) })
		if err := r.k.Run(sim.MaxTime); err != nil {
			t.Fatal(err)
		}
		r.k.Shutdown()
		if got := srv.discarded.Value(); got != n-2 {
			t.Errorf("crash discarded %d queued requests, want %d", got, n-2)
		}
		if got := srv.served.Value(); got != n {
			t.Errorf("served %d after the restart, want %d", got, n)
		}
		if srv.q.Len() != 0 || srv.work.Len() != 0 {
			t.Errorf("run left %d requests and %d work tokens queued", srv.q.Len(), srv.work.Len())
		}
		freeLists(t, r.eps[0])
	})
}
