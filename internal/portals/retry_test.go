package portals

import (
	"errors"
	"testing"
	"time"

	"lwfs/internal/netsim"
	"lwfs/internal/sim"
)

// quickRetry keeps virtual times short in tests.
var quickRetry = RetryPolicy{
	MaxAttempts: 3,
	Timeout:     10 * time.Millisecond,
	Backoff:     time.Millisecond,
	MaxBackoff:  4 * time.Millisecond,
	Jitter:      100 * time.Microsecond,
}

func TestCallRetriesThroughDropWindow(t *testing.T) {
	r := newRig(t, 2, 100*mb)
	var calls int
	Serve(r.eps[1], 5, "svc", 1, func(p *sim.Proc, from netsim.NodeID, req interface{}) (interface{}, error) {
		calls++
		return req.(int) * 2, nil
	})
	// Drop everything for the first 15ms: the first attempt's request
	// vanishes; the retry (after timeout + backoff) goes through.
	r.k.At(sim.Time(0).Add(15*time.Millisecond), r.net.InjectFault(netsim.FaultSpec{DropProb: 1}).Heal)
	c := NewCaller(r.eps[0])
	c.SetRetry(quickRetry, sim.NewRand(1))
	var got interface{}
	var err error
	r.k.Spawn("client", func(p *sim.Proc) {
		got, err = c.Call(p, r.eps[1].Node(), 5, 21, 64, 64)
	})
	if e := r.k.Run(sim.MaxTime); e != nil {
		t.Fatal(e)
	}
	if err != nil || got.(int) != 42 {
		t.Fatalf("got %v, %v", got, err)
	}
	if calls != 1 {
		t.Fatalf("handler ran %d times", calls)
	}
	if c.ep.retries.Value() == 0 {
		t.Fatal("expected at least one retry")
	}
}

func TestRetryExhaustionReturnsTimeout(t *testing.T) {
	r := newRig(t, 2, 100*mb)
	Serve(r.eps[1], 5, "svc", 1, func(p *sim.Proc, from netsim.NodeID, req interface{}) (interface{}, error) {
		return nil, nil
	})
	r.net.Partition([]netsim.NodeID{r.eps[0].Node()}, []netsim.NodeID{r.eps[1].Node()})
	c := NewCaller(r.eps[0])
	c.SetRetry(quickRetry, sim.NewRand(1))
	var err error
	r.k.Spawn("client", func(p *sim.Proc) {
		_, err = c.Call(p, r.eps[1].Node(), 5, "x", 64, 64)
	})
	if e := r.k.Run(sim.MaxTime); e != nil {
		t.Fatal(e)
	}
	if !errors.Is(err, ErrRPCTimeout) {
		t.Fatalf("err = %v", err)
	}
}

func TestServerDedupsSlowRequestRetries(t *testing.T) {
	// The handler is slower (30ms) than the retry budget's per-attempt
	// timeout (10ms), so the client re-sends twice while the original
	// execution is still running. The server must run the handler ONCE and
	// answer the final attempt's token from the original execution.
	r := newRig(t, 2, 100*mb)
	var calls int
	srv := Serve(r.eps[1], 5, "svc", 4, func(p *sim.Proc, from netsim.NodeID, req interface{}) (interface{}, error) {
		calls++
		p.Sleep(30 * time.Millisecond)
		return "done", nil
	})
	c := NewCaller(r.eps[0])
	c.SetRetry(quickRetry, sim.NewRand(1))
	var got interface{}
	var err error
	r.k.Spawn("client", func(p *sim.Proc) {
		got, err = c.Call(p, r.eps[1].Node(), 5, "op", 64, 64)
	})
	if e := r.k.Run(sim.MaxTime); e != nil {
		t.Fatal(e)
	}
	if err != nil || got.(string) != "done" {
		t.Fatalf("got %v, %v", got, err)
	}
	if calls != 1 {
		t.Fatalf("non-idempotent handler ran %d times", calls)
	}
	if srv.deduped.Value() != 2 {
		t.Fatalf("deduped = %d, want 2", srv.deduped.Value())
	}
	// The first two attempts' replies eventually landed after their
	// timeouts: dropped and counted, never delivered to a live call.
	if n := r.count("rpc.client.n0.late_replies"); n != 2 {
		t.Fatalf("late replies = %d, want 2", n)
	}
}

func TestLateReplyAfterCallTimeoutIsCountedNotDelivered(t *testing.T) {
	r := newRig(t, 2, 100*mb)
	Serve(r.eps[1], 5, "svc", 2, func(p *sim.Proc, from netsim.NodeID, req interface{}) (interface{}, error) {
		if req.(string) == "slow" {
			p.Sleep(50 * time.Millisecond)
		}
		return "resp:" + req.(string), nil
	})
	c := NewCaller(r.eps[0])
	var first, second interface{}
	var err1, err2 error
	r.k.Spawn("client", func(p *sim.Proc) {
		// Times out at 5ms; its reply arrives ~50ms, long after the next
		// call is in flight.
		first, err1 = callTimeout(c, p, r.eps[1].Node(), 5, "slow", 5*time.Millisecond)
		second, err2 = c.Call(p, r.eps[1].Node(), 5, "fast", 64, 64)
		// Park past the late reply's arrival so the drop is observable.
		p.Sleep(100 * time.Millisecond)
	})
	if e := r.k.Run(sim.MaxTime); e != nil {
		t.Fatal(e)
	}
	if !errors.Is(err1, ErrRPCTimeout) || first != nil {
		t.Fatalf("first = %v, %v", first, err1)
	}
	if err2 != nil || second.(string) != "resp:fast" {
		t.Fatalf("second call corrupted by late reply: %v, %v", second, err2)
	}
	if n := r.count("rpc.client.n0.late_replies"); n != 1 {
		t.Fatalf("late replies = %d, want 1", n)
	}
	if n := r.count("portals.n0.late_drops"); n != 1 {
		t.Fatalf("endpoint late drops = %d, want 1", n)
	}
}

func TestServerDownDiscardsAndRestartServes(t *testing.T) {
	r := newRig(t, 2, 100*mb)
	srv := Serve(r.eps[1], 5, "svc", 1, func(p *sim.Proc, from netsim.NodeID, req interface{}) (interface{}, error) {
		return "ok", nil
	})
	c := NewCaller(r.eps[0])
	c.SetRetry(RetryPolicy{MaxAttempts: 8, Timeout: 5 * time.Millisecond, Backoff: 2 * time.Millisecond}, sim.NewRand(1))
	srv.SetDown(true)
	r.k.After(20*time.Millisecond, func() { srv.SetDown(false) })
	var got interface{}
	var err error
	r.k.Spawn("client", func(p *sim.Proc) {
		got, err = c.Call(p, r.eps[1].Node(), 5, "x", 64, 64)
	})
	if e := r.k.Run(sim.MaxTime); e != nil {
		t.Fatal(e)
	}
	if err != nil || got.(string) != "ok" {
		t.Fatalf("got %v, %v", got, err)
	}
	if srv.discarded.Value() == 0 {
		t.Fatal("expected discarded requests while down")
	}
}

func TestCrashSuppressesInFlightReply(t *testing.T) {
	// A handler that is mid-execution when the server crashes must not leak
	// its reply after the crash — even if the server restarts first.
	r := newRig(t, 2, 100*mb)
	srv := Serve(r.eps[1], 5, "svc", 1, func(p *sim.Proc, from netsim.NodeID, req interface{}) (interface{}, error) {
		p.Sleep(10 * time.Millisecond)
		return "stale", nil
	})
	r.k.After(5*time.Millisecond, func() { srv.SetDown(true) })
	r.k.After(7*time.Millisecond, func() { srv.SetDown(false) })
	c := NewCaller(r.eps[0])
	var err error
	r.k.Spawn("client", func(p *sim.Proc) {
		_, err = callTimeout(c, p, r.eps[1].Node(), 5, "x", 30*time.Millisecond)
	})
	if e := r.k.Run(sim.MaxTime); e != nil {
		t.Fatal(e)
	}
	if !errors.Is(err, ErrRPCTimeout) {
		t.Fatalf("err = %v, want timeout (reply suppressed)", err)
	}
	if srv.served.Value() != 0 {
		t.Fatalf("served = %d, want 0", srv.served.Value())
	}
}

func TestGetRetryRidesOutDropWindow(t *testing.T) {
	r := newRig(t, 2, 100*mb)
	r.eps[1].Attach(4, 1, 0, &MD{Payload: netsim.BytesPayload([]byte("abcdefgh"))})
	r.eps[0].SetGetRetry(quickRetry, sim.NewRand(1))
	r.k.At(sim.Time(0).Add(15*time.Millisecond), r.net.InjectFault(netsim.FaultSpec{DropProb: 1}).Heal)
	var got netsim.Payload
	var err error
	r.k.Spawn("getter", func(p *sim.Proc) {
		got, err = r.eps[0].Get(p, r.eps[1].Node(), 4, 1, 0, 8)
	})
	if e := r.k.Run(sim.MaxTime); e != nil {
		t.Fatal(e)
	}
	if err != nil || string(got.Data) != "abcdefgh" {
		t.Fatalf("got %q, %v", got.Data, err)
	}
}

func TestGetRetryExhaustionReturnsError(t *testing.T) {
	r := newRig(t, 2, 100*mb)
	r.eps[1].Attach(4, 1, 0, &MD{Payload: netsim.SyntheticPayload(64)})
	r.eps[0].SetGetRetry(quickRetry, sim.NewRand(1))
	r.net.Partition([]netsim.NodeID{r.eps[0].Node()}, []netsim.NodeID{r.eps[1].Node()})
	var err error
	r.k.Spawn("getter", func(p *sim.Proc) {
		_, err = r.eps[0].Get(p, r.eps[1].Node(), 4, 1, 0, 8)
	})
	if e := r.k.Run(sim.MaxTime); e != nil {
		t.Fatal(e)
	}
	if !errors.Is(err, ErrGetTimeout) {
		t.Fatalf("err = %v", err)
	}
}

func TestPauseUncappedBackoffGrows(t *testing.T) {
	// MaxBackoff == 0 documents "uncapped": the backoff must still double
	// per attempt instead of sticking at Backoff.
	pol := RetryPolicy{MaxAttempts: 6, Timeout: time.Millisecond, Backoff: time.Millisecond}
	for a, want := 0, time.Millisecond; a < 5; a, want = a+1, want*2 {
		if got := pol.Pause(a, nil); got != want {
			t.Fatalf("attempt %d: pause = %v, want %v", a, got, want)
		}
	}
	capped := pol
	capped.MaxBackoff = 3 * time.Millisecond
	if got := capped.Pause(4, nil); got != 3*time.Millisecond {
		t.Fatalf("capped pause = %v, want %v", got, 3*time.Millisecond)
	}
}

// rawRetry drives retryable requests from r.eps[0] to (r.eps[1], 5) by hand,
// as Caller.call sends them, with the ack watermark the test chooses; the
// replies land in the returned mailbox.
func rawRetry(r *rig) (put func(tok, reqID, ack uint64, body string), replies *sim.Mailbox) {
	replies = sim.NewMailbox(r.k, "replies")
	r.eps[0].Attach(ReplyPortal, 0, ^MatchBits(0), &MD{EQ: replies})
	return func(tok, reqID, ack uint64, body string) {
		out := r.eps[0].record(5, 0, netsim.SyntheticPayload(64))
		v := any(body)
		out.kind, out.token, out.body = wireRequest, tok, newCell(r.eps[0].pool, anyOp.req, &v)
		out.rpc = rpcHead{ReqID: reqID, AckLag: uint32(reqID - ack), Op: anyOp.id}
		r.eps[0].send(r.eps[1].Node(), out)
	}, replies
}

func TestWatermarkPruneSkipsInFlightEntries(t *testing.T) {
	// A watermark that passes an execution still in flight must not forget
	// it: the duplicate waiting on it has to get its result, and a
	// retransmission arriving after it completed must not run the
	// non-idempotent handler again.
	r := newRig(t, 2, 100*mb)
	calls := make(map[string]int)
	srv := Serve(r.eps[1], 5, "svc", 4, func(p *sim.Proc, from netsim.NodeID, req interface{}) (interface{}, error) {
		calls[req.(string)]++
		if req.(string) == "slow" {
			p.Sleep(40 * time.Millisecond)
		}
		return "ok", nil
	})
	put, _ := rawRetry(r)
	var pruned int
	r.k.Spawn("driver", func(p *sim.Proc) {
		put(1, 100, 100, "slow") // starts a 40ms execution
		p.Sleep(5 * time.Millisecond)
		put(2, 101, 100, "fast1") // completes
		p.Sleep(5 * time.Millisecond)
		put(3, 100, 100, "slow") // a duplicate while the original still runs: waits
		p.Sleep(5 * time.Millisecond)
		put(4, 102, 102, "fast2") // passes both: drops fast1, keeps slow
		p.Sleep(5 * time.Millisecond)
		pruned = len(srv.senders[r.eps[0].Node()].reqs)
		p.Sleep(40 * time.Millisecond)
		put(5, 100, 102, "slow") // the original completed: discarded
	})
	if e := r.k.Run(sim.MaxTime); e != nil {
		t.Fatal(e)
	}
	if calls["slow"] != 1 {
		t.Fatalf("non-idempotent in-flight handler ran %d times under watermark pressure", calls["slow"])
	}
	if srv.deduped.Value() != 1 {
		t.Fatalf("deduped = %d, want 1", srv.deduped.Value())
	}
	if pruned != 2 {
		t.Fatalf("table after the prune holds %d entries, want 2 (slow in flight, fast2)", pruned)
	}
	if srv.discarded.Value() != 1 || srv.served.Value() != 4 {
		t.Fatalf("discarded = %d, served = %d; want the late retransmission discarded and 4 served", srv.discarded.Value(), srv.served.Value())
	}
}

// The table is bounded by outstanding calls: one sequential caller never
// leaves more than its one call in it, and 16 concurrent callers on one node
// no more than 16.
func TestRetryTableBoundedByOutstandingCalls(t *testing.T) {
	for _, callers := range []int{1, 16} {
		r := newRig(t, 2, 1000*mb)
		client := r.eps[0].Node()
		var srv *Server
		most := 0
		srv = Serve(r.eps[1], 5, "svc", 4, func(p *sim.Proc, from netsim.NodeID, req interface{}) (interface{}, error) {
			most = max(most, len(srv.senders[client].reqs))
			p.Sleep(time.Microsecond)
			return nil, nil
		})
		for i := 0; i < callers; i++ {
			c := NewCaller(r.eps[0])
			c.SetRetry(quickRetry, sim.NewRand(int64(i)))
			r.k.Spawn("client", func(p *sim.Proc) {
				for n := 0; n < 10000/callers; n++ {
					if _, err := c.Call(p, r.eps[1].Node(), 5, nil, 64, 64); err != nil {
						t.Error(err)
						return
					}
				}
			})
		}
		if e := r.k.Run(sim.MaxTime); e != nil {
			t.Fatal(e)
		}
		if most > callers {
			t.Errorf("%d callers: the table grew to %d entries", callers, most)
		}
		t.Logf("%d callers: at most %d entries", callers, most)
		if n := len(r.eps[0].open); n != 0 {
			t.Errorf("%d callers: %d calls still listed outstanding after every call returned", callers, n)
		}
	}
}

// A request below its sender's watermark is a retransmission whose caller
// has returned: discarded unexecuted, unanswered.
func TestRequestBelowWatermarkIsDiscarded(t *testing.T) {
	r := newRig(t, 2, 100*mb)
	var ran []string
	srv := Serve(r.eps[1], 5, "svc", 1, func(p *sim.Proc, from netsim.NodeID, req interface{}) (interface{}, error) {
		ran = append(ran, req.(string))
		return nil, nil
	})
	put, replies := rawRetry(r)
	r.k.Spawn("driver", func(p *sim.Proc) {
		put(1, 10, 10, "a")
		put(2, 12, 12, "b") // every call below 12 has returned
		put(3, 11, 11, "stale")
	})
	if e := r.k.Run(sim.MaxTime); e != nil {
		t.Fatal(e)
	}
	if len(ran) != 2 || ran[0] != "a" || ran[1] != "b" {
		t.Fatalf("handler ran %v, want [a b]", ran)
	}
	if srv.discarded.Value() != 1 || replies.Len() != 2 {
		t.Fatalf("discarded = %d, replies = %d; want 1 and 2", srv.discarded.Value(), replies.Len())
	}
}

// A crash frees a worker whose duplicate waits on an in-flight original, and
// nothing either of them computed is answered after the restart.
func TestCrashFreesAWaitingDuplicate(t *testing.T) {
	r := newRig(t, 2, 100*mb)
	srv := Serve(r.eps[1], 5, "svc", 2, func(p *sim.Proc, from netsim.NodeID, req interface{}) (interface{}, error) {
		if req.(string) == "slow" {
			p.Sleep(40 * time.Millisecond)
		} else {
			p.Sleep(10 * time.Millisecond)
		}
		return req, nil
	})
	put, replies := rawRetry(r)
	var answers []string
	var at []time.Duration
	r.k.Spawn("driver", func(p *sim.Proc) {
		put(1, 100, 100, "slow") // worker 0, for 40ms
		p.Sleep(5 * time.Millisecond)
		put(2, 100, 100, "slow") // worker 1 waits on it
		p.Sleep(5 * time.Millisecond)
		srv.SetDown(true)
		p.Sleep(2 * time.Millisecond)
		srv.SetDown(false)
		put(3, 102, 102, "after") // worker 1 is free again
		p.Sleep(50 * time.Millisecond)
		put(4, 104, 104, "x") // both workers serve in parallel
		put(5, 106, 104, "y")
	})
	r.k.Spawn("listener", func(p *sim.Proc) {
		for len(answers) < 3 {
			ev := replies.Recv(p).(*Event)
			answers = append(answers, (*ev.body.(*cell[any]).get()).(string))
			at = append(at, time.Duration(p.Now()))
			ev.Release()
		}
	})
	if e := r.k.Run(sim.MaxTime); e != nil {
		t.Fatal(e)
	}
	if len(answers) != 3 || answers[0] != "after" || replies.Len() != 0 {
		t.Fatalf("answers %v (%d more queued), want after, x, y and nothing from before the crash", answers, replies.Len())
	}
	if at[0] > 30*time.Millisecond {
		t.Fatalf("the request after the restart was answered at %v: its worker still waited on the crashed execution", at[0])
	}
	if at[2]-at[1] > time.Millisecond {
		t.Fatalf("x and y answered at %v and %v, one after the other: both workers should serve again", at[1], at[2])
	}
	if srv.served.Value() != 3 {
		t.Fatalf("served = %d, want 3", srv.served.Value())
	}
}
