package portals

import (
	"errors"
	"strings"
	"testing"
	"time"

	"lwfs/internal/netsim"
	"lwfs/internal/sim"
)

// The typed path: Ops, Invoke, Headers and the cells they travel in. Every
// test here checks, besides the answer, that each cell a run took is
// released or kept by a dedup table when it ends (settled); under the race
// detector a released cell is poisoned, so a late touch panics.

type cellReq struct {
	N   int64
	Tag string
}

type cellResp struct{ N int64 }

var (
	opDouble = NewOp[cellReq, cellResp]()
	opNone   = NewOp[cellReq, struct{}]()
	testAt   = NewHeader[int64]()
	hdrReq   = NewHeader[cellReq]() // a Put header of a request's type
)

// cellSrv doubles N after sleeping slow; Tag "fail" answers an error.
type cellSrv struct {
	slow time.Duration
	runs int
}

var errCellFail = errors.New("cell server: asked to fail")

func (s *cellSrv) double(p *sim.Proc, _ netsim.NodeID, r *cellReq) (cellResp, error) {
	s.runs++
	p.Sleep(s.slow)
	if r.Tag == "fail" {
		return cellResp{}, errCellFail
	}
	return cellResp{N: 2 * r.N}, nil
}

var cellOps = NewOps(
	Handle(opDouble, (*cellSrv).double),
	Handle(opNone, func(*cellSrv, *sim.Proc, netsim.NodeID, *cellReq) (struct{}, error) { return struct{}{}, nil }),
)

// cellRig serves cellOps at (eps[1], 5) with two threads.
func cellRig(t *testing.T, slow time.Duration) (*rig, *Server, *cellSrv) {
	r := newRig(t, 2, 100*mb)
	cs := &cellSrv{slow: slow}
	return r, ServeOps(r.eps[1], 5, "cells", 2, cellOps, cs), cs
}

// settled fails unless every cell taken on r's network is released or kept
// by one of srvs's dedup tables.
func settled(t *testing.T, r *rig, srvs ...*Server) {
	t.Helper()
	kept := 0
	for _, s := range srvs {
		for _, sn := range s.senders {
			for _, e := range sn.reqs {
				if e.body != nil {
					kept++
				}
			}
		}
	}
	if out := r.eps[0].pool.out; out != kept {
		t.Errorf("%d cells outstanding, %d of them kept by a dedup table: %d leaked", out, kept, out-kept)
	}
}

func retryPolicy(timeout time.Duration) RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, Timeout: timeout, Backoff: 100 * time.Microsecond}
}

// DescribeBody reads through a cell to the value's type: a typed request, a
// typed reply, an empty reply, an error reply and a typed Put header.
func TestDescribeBodyUnwrapsCells(t *testing.T) {
	r, _, _ := cellRig(t, 0)
	var seen []string
	r.net.SetTrace(func(_ sim.Time, m netsim.Message, event string) {
		if event == "tx" {
			seen = append(seen, DescribeBody(m.Body))
		}
	})
	c := NewCaller(r.eps[0])
	r.eps[1].Attach(7, 1, 0, &MD{})
	r.k.Spawn("client", func(p *sim.Proc) {
		if v, err := Invoke(c, p, r.eps[1].Node(), 5, opDouble, &cellReq{N: 21}, 64, 64); v.N != 42 || err != nil {
			t.Errorf("double 21 = %d, %v", v.N, err)
		}
		if _, err := Invoke(c, p, r.eps[1].Node(), 5, opNone, &cellReq{}, 64, 64); err != nil {
			t.Error(err)
		}
		if _, err := Invoke(c, p, r.eps[1].Node(), 5, opDouble, &cellReq{Tag: "fail"}, 64, 64); !errors.Is(err, errCellFail) {
			t.Errorf("failing call: %v", err)
		}
		at := int64(4096)
		testAt.Put(r.eps[0], r.eps[1].Node(), 7, 1, &at, netsim.SyntheticPayload(8))
	})
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	want := "put[portals.cellReq] put[portals.cellResp] put[portals.cellReq] put[<nil>] put[portals.cellReq] put[<nil> err] put[int64]"
	if got := strings.Join(seen, " "); got != want {
		t.Errorf("trace reads\n\t%s\nwant\n\t%s", got, want)
	}
	settled(t, r)
}

// Of reads only a Put's header: a request's cell of the same Go type is not
// one.
func TestHeaderOfReadsOnlyPuts(t *testing.T) {
	r, _, _ := cellRig(t, 0)
	ev := r.eps[0].record(5, 0, netsim.Payload{})
	ev.kind, ev.body = wireRequest, newCell(r.eps[0].pool, opDouble.req, &cellReq{N: 7})
	if h := hdrReq.Of(ev); h != nil {
		t.Errorf("Of read a request's cell as a Put header: %+v", *h)
	}
	ev.kind = wirePut
	if h := hdrReq.Of(ev); h == nil || h.N != 7 {
		t.Errorf("Of of a Put = %v, want its header", h)
	}
	ev.Release()
	settled(t, r)
}

// A warm typed RPC allocates nothing, with or without a retry policy, on
// both server paths: its request and reply cells come off the network's
// free lists like the records that carry them.
func TestWarmTypedRPCAllocatesNothing(t *testing.T) {
	for _, retry := range []bool{false, true} {
		bothPaths(t, func(t *testing.T, install func(*Server)) {
			r, srv, _ := cellRig(t, 0)
			install(srv)
			c := NewCaller(r.eps[0])
			if retry {
				c.SetRetry(retryPolicy(time.Second), nil)
			}
			req := cellReq{N: 1, Tag: "warm"}
			got := mallocsPer(t, r, 100, 10000, func(p *sim.Proc) error {
				_, err := Invoke(c, p, r.eps[1].Node(), 5, opDouble, &req, 128, 128)
				return err
			})
			if got > 0.01 {
				t.Errorf("retry %v: a warm typed RPC makes %.2f allocations, want none", retry, got)
			}
		})
	}
}

// A retried call whose request, then whose reply, the fabric loses gets its
// own answer, and the lost records give their cells back (netsim.OnDrop).
func TestRetryCellsOfADroppedMessage(t *testing.T) {
	for _, lose := range []string{"put[portals.cellReq]", "put[portals.cellResp]"} {
		r, srv, cs := cellRig(t, 0)
		dropped := 0
		r.net.SetFault(func(m netsim.Message) bool {
			if dropped == 0 && DescribeBody(m.Body) == lose {
				dropped++
				return true
			}
			return false
		})
		c := NewCaller(r.eps[0])
		c.SetRetry(retryPolicy(5*time.Millisecond), nil)
		r.k.Spawn("client", func(p *sim.Proc) {
			if v, err := Invoke(c, p, r.eps[1].Node(), 5, opDouble, &cellReq{N: 8}, 64, 64); v.N != 16 || err != nil {
				t.Errorf("losing %s: double 8 = %d, %v", lose, v.N, err)
			}
		})
		if err := r.k.Run(sim.MaxTime); err != nil {
			t.Fatal(err)
		}
		if dropped != 1 || cs.runs != 1 {
			t.Errorf("losing %s: dropped %d, handler ran %d times; want 1 and 1", lose, dropped, cs.runs)
		}
		settled(t, r, srv)
	}
}

// A request that reaches a crashed server is discarded with its cell; after
// the restart the next one is answered.
func TestRetryCellsDiscardedByADownServer(t *testing.T) {
	r, srv, cs := cellRig(t, 0)
	c := NewCaller(r.eps[0])
	srv.SetDown(true)
	r.k.Spawn("client", func(p *sim.Proc) {
		if _, err := InvokeTimeout(c, p, r.eps[1].Node(), 5, opDouble, &cellReq{N: 1}, 64, 64, time.Millisecond); !errors.Is(err, ErrRPCTimeout) {
			t.Errorf("call to a down server: %v", err)
		}
		srv.SetDown(false)
		if v, err := Invoke(c, p, r.eps[1].Node(), 5, opDouble, &cellReq{N: 3}, 64, 64); v.N != 6 || err != nil {
			t.Errorf("after restart: double 3 = %d, %v", v.N, err)
		}
	})
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if srv.discarded.Value() != 1 || cs.runs != 1 {
		t.Errorf("discarded %d, ran %d; want 1 and 1", srv.discarded.Value(), cs.runs)
	}
	settled(t, r, srv)
}

// A retransmission below its sender's watermark is discarded with its cell,
// and the replies the watermark passes leave the table with theirs.
func TestWatermarkDiscardReleasesTypedCells(t *testing.T) {
	r, srv, cs := cellRig(t, 0)
	replies := sim.NewMailbox(r.k, "replies")
	r.eps[0].Attach(ReplyPortal, 0, ^MatchBits(0), &MD{EQ: replies})
	send := func(tok, reqID, ack uint64, n int64) {
		out := r.eps[0].record(5, 0, netsim.SyntheticPayload(64))
		out.kind, out.token, out.body = wireRequest, tok, newCell(r.eps[0].pool, opDouble.req, &cellReq{N: n})
		out.rpc = rpcHead{ReqID: reqID, AckLag: uint32(reqID - ack), Op: opDouble.id}
		r.eps[0].send(r.eps[1].Node(), out)
	}
	var got []int64
	r.k.Spawn("driver", func(p *sim.Proc) {
		send(1, 10, 10, 1)
		send(2, 12, 12, 2) // every call below 12 has returned
		send(3, 11, 11, 3) // so this one is discarded unexecuted
		p.Sleep(time.Millisecond)
		for replies.Len() > 0 {
			ev := replies.Recv(p).(*Event)
			got = append(got, take[cellResp](ev.body).N)
			ev.body = nil
			ev.Release()
		}
	})
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if cs.runs != 2 || srv.discarded.Value() != 1 || len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("ran %d, discarded %d, replies %v; want 2, 1, [2 4]", cs.runs, srv.discarded.Value(), got)
	}
	settled(t, r, srv)
}

// Two duplicates wait on one slow original: the handler runs once, the last
// attempt gets its answer from the original's reply, and every copy of that
// reply is released or kept.
func TestDedupWaitersShareOneTypedReply(t *testing.T) {
	r, srv, cs := cellRig(t, 25*time.Millisecond)
	c := NewCaller(r.eps[0])
	c.SetRetry(retryPolicy(10*time.Millisecond), nil)
	r.k.Spawn("client", func(p *sim.Proc) {
		if v, err := Invoke(c, p, r.eps[1].Node(), 5, opDouble, &cellReq{N: 5}, 64, 64); v.N != 10 || err != nil {
			t.Errorf("double 5 = %d, %v", v.N, err)
		}
	})
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if cs.runs != 1 || srv.deduped.Value() != 2 {
		t.Errorf("ran %d, deduped %d; want 1 and 2", cs.runs, srv.deduped.Value())
	}
	settled(t, r, srv)
}

// A crash frees a duplicate waiting on a typed original; neither answers,
// and both give their cells back.
func TestCrashFreesAWaitingTypedDuplicate(t *testing.T) {
	r, srv, cs := cellRig(t, 40*time.Millisecond)
	c := NewCaller(r.eps[0])
	c.SetRetry(RetryPolicy{MaxAttempts: 2, Timeout: 10 * time.Millisecond, Backoff: 100 * time.Microsecond}, nil)
	r.k.Spawn("client", func(p *sim.Proc) {
		if _, err := Invoke(c, p, r.eps[1].Node(), 5, opDouble, &cellReq{N: 5}, 64, 64); !errors.Is(err, ErrRPCTimeout) {
			t.Errorf("call across a crash: %v", err)
		}
	})
	r.k.Spawn("crash", func(p *sim.Proc) {
		p.Sleep(15 * time.Millisecond) // the duplicate waits on the original
		srv.SetDown(true)
	})
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if cs.runs != 1 || srv.deduped.Value() != 1 || srv.served.Value() != 0 {
		t.Errorf("ran %d, deduped %d, served %d; want 1, 1, 0", cs.runs, srv.deduped.Value(), srv.served.Value())
	}
	settled(t, r, srv)
}

// shedAll is a Dispatcher that admits nothing.
type shedAll struct{}

func (shedAll) Submit(Delivery) error   { return ErrOverload }
func (shedAll) Next(*sim.Proc) Delivery { return Delivery{} }
func (shedAll) Len() int                { return 0 }
func (shedAll) Clear() int              { return 0 }

// A request the dispatcher sheds is answered ErrOverload at once, retry
// policy or not, and its cell is released unserved.
func TestRetryCellsOfAShedRequest(t *testing.T) {
	r, srv, cs := cellRig(t, 0)
	srv.SetDispatcher(shedAll{})
	c := NewCaller(r.eps[0])
	c.SetRetry(retryPolicy(5*time.Millisecond), nil)
	r.k.Spawn("client", func(p *sim.Proc) {
		if _, err := Invoke(c, p, r.eps[1].Node(), 5, opDouble, &cellReq{N: 1}, 64, 64); !errors.Is(err, ErrOverload) {
			t.Errorf("shed call: %v", err)
		}
	})
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if cs.runs != 0 || srv.shed.Value() != 1 {
		t.Errorf("ran %d, shed %d; want 0 and 1", cs.runs, srv.shed.Value())
	}
	settled(t, r, srv)
}
