package stripe_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lwfs/internal/authz"
	"lwfs/internal/cluster"
	"lwfs/internal/core"
	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/sim"
	"lwfs/internal/stripe"
	"lwfs/internal/testrig"
)

func engineCluster(servers int) (*cluster.Cluster, *cluster.LWFS) {
	spec := cluster.DevCluster()
	spec.ComputeNodes = 4
	spec = spec.WithServers(servers)
	cl := cluster.New(spec)
	cl.RegisterUser("app", "s3cret")
	return cl, cl.DeployLWFS()
}

// makeLayout creates one object per server and returns the layout.
func makeLayout(t *testing.T, p *sim.Proc, c *core.Client, caps core.CapSet, unit int64) stripe.Layout {
	t.Helper()
	l := stripe.Layout{Unit: unit}
	for i := range c.Servers() {
		ref, err := c.CreateObject(p, c.Server(i), caps)
		if err != nil {
			t.Fatalf("create object %d: %v", i, err)
		}
		l.Objs = append(l.Objs, ref)
	}
	return l
}

func TestEngineWriteReadRoundTrip(t *testing.T) {
	cl, lw := engineCluster(4)
	c := cl.NewClient(lw, 0)
	cl.Spawn("app", func(p *sim.Proc) {
		if err := c.Login(p, "app", "s3cret"); err != nil {
			t.Fatalf("login: %v", err)
		}
		cid, err := c.CreateContainer(p)
		if err != nil {
			t.Fatalf("container: %v", err)
		}
		caps, err := c.GetCaps(p, cid, authz.AllOps...)
		if err != nil {
			t.Fatalf("caps: %v", err)
		}
		eng := stripe.NewEngine(c, caps, 0)
		l := makeLayout(t, p, c, caps, 64<<10)

		data := make([]byte, 777_777) // crosses units, servers, partial tail
		rng := rand.New(rand.NewSource(11))
		rng.Read(data)
		n, err := eng.WriteAt(p, l, 0, netsim.BytesPayload(data))
		if err != nil || n != int64(len(data)) {
			t.Fatalf("write: n=%d err=%v", n, err)
		}
		got, err := eng.ReadAt(p, l, 0, int64(len(data)))
		if err != nil || !bytes.Equal(got.Data, data) {
			t.Fatalf("read mismatch: err=%v", err)
		}
		// Unaligned offset read.
		got, err = eng.ReadAt(p, l, 65_537, 200_001)
		if err != nil || !bytes.Equal(got.Data, data[65_537:65_537+200_001]) {
			t.Fatalf("offset read mismatch: err=%v", err)
		}
		// Sync fan-out across all targets.
		if err := eng.Sync(p, l, nil); err != nil {
			t.Fatalf("sync: %v", err)
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// The coalesced engine must issue exactly one storage RPC per object for a
// multi-unit transfer (the serial path issues one per unit).
func TestEngineOneRPCPerObject(t *testing.T) {
	cl, lw := engineCluster(4)
	c := cl.NewClient(lw, 0)
	cl.Spawn("app", func(p *sim.Proc) {
		if err := c.Login(p, "app", "s3cret"); err != nil {
			t.Fatalf("login: %v", err)
		}
		cid, _ := c.CreateContainer(p)
		caps, err := c.GetCaps(p, cid, authz.AllOps...)
		if err != nil {
			t.Fatalf("caps: %v", err)
		}
		eng := stripe.NewEngine(c, caps, 0)
		l := makeLayout(t, p, c, caps, 8<<10)

		served := func() int64 {
			var n int64
			for _, s := range lw.Servers {
				n += testrig.Metric(cl.Metrics(), "rpc."+s.Device().Name()+".served")
			}
			return n
		}
		before := served()
		// 32 units over 4 objects: 4 RPCs coalesced, not 32.
		if _, err := eng.WriteAt(p, l, 0, netsim.SyntheticPayload(32*8<<10)); err != nil {
			t.Fatalf("write: %v", err)
		}
		if got := served() - before; got != 4 {
			t.Fatalf("coalesced write used %d storage RPCs, want 4", got)
		}
		before = served()
		if _, err := eng.ReadAt(p, l, 0, 32*8<<10); err != nil {
			t.Fatalf("read: %v", err)
		}
		if got := served() - before; got != 4 {
			t.Fatalf("coalesced read used %d storage RPCs, want 4", got)
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// A bounded window must still complete every request, never exceeding the
// bound in flight.
func TestFanOutWindowBound(t *testing.T) {
	k := sim.NewKernel()
	const n, window = 20, 3
	inflight, peak, ran := 0, 0, 0
	k.Spawn("driver", func(p *sim.Proc) {
		err := stripe.FanOut(p, "test", n, window, func(wp *sim.Proc, i int) error {
			inflight++
			if inflight > peak {
				peak = inflight
			}
			wp.Sleep(1e6) // 1ms of simulated service time
			inflight--
			ran++
			return nil
		})
		if err != nil {
			t.Errorf("fanout: %v", err)
		}
	})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if ran != n {
		t.Fatalf("ran %d of %d", ran, n)
	}
	if peak != window {
		t.Fatalf("peak in-flight %d, want %d", peak, window)
	}
}

// Per-request error collection: sibling requests run to completion and the
// joined error names each failed index.
func TestFanOutCollectsErrors(t *testing.T) {
	k := sim.NewKernel()
	errBoom := authz.ErrCapRejected // any sentinel from the stack works
	k.Spawn("driver", func(p *sim.Proc) {
		completed := 0
		err := stripe.FanOut(p, "test", 6, 2, func(wp *sim.Proc, i int) error {
			wp.Sleep(1e6)
			completed++
			if i%2 == 1 {
				return errBoom
			}
			return nil
		})
		if completed != 6 {
			t.Errorf("siblings aborted: %d of 6 completed", completed)
		}
		if err == nil {
			t.Error("errors were dropped")
		}
	})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
}

// Race-detector test: several application processes drive engines over
// separate layouts at once, so fan-out workers from different calls
// interleave under the kernel. Run with -race in CI.
func TestEngineConcurrentFanOutRace(t *testing.T) {
	cl, lw := engineCluster(4)
	const apps = 4
	results := make([][]byte, apps)
	for a := 0; a < apps; a++ {
		c := cl.NewClient(lw, a)
		cl.Spawn("app", func(p *sim.Proc) {
			if err := c.Login(p, "app", "s3cret"); err != nil {
				t.Errorf("login: %v", err)
				return
			}
			cid, err := c.CreateContainer(p)
			if err != nil {
				t.Errorf("container: %v", err)
				return
			}
			caps, err := c.GetCaps(p, cid, authz.AllOps...)
			if err != nil {
				t.Errorf("caps: %v", err)
				return
			}
			eng := stripe.NewEngine(c, caps, 2) // small window: force queuing
			l := makeLayout(t, p, c, caps, 4<<10)
			data := make([]byte, 100_000+a*13_331)
			rng := rand.New(rand.NewSource(int64(a)))
			rng.Read(data)
			for round := 0; round < 3; round++ {
				if _, err := eng.WriteAt(p, l, int64(round*50_000), netsim.BytesPayload(data)); err != nil {
					t.Errorf("app %d write: %v", a, err)
					return
				}
			}
			got, err := eng.ReadAt(p, l, 100_000, int64(len(data)))
			if err != nil {
				t.Errorf("app %d read: %v", a, err)
				return
			}
			results[a] = got.Data
		})
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	for a, got := range results {
		// The last round wrote data at offset 100_000; the read must see it.
		data := make([]byte, 100_000+a*13_331)
		rng := rand.New(rand.NewSource(int64(a)))
		rng.Read(data)
		if !bytes.Equal(got, data) {
			t.Errorf("app %d readback mismatch", a)
		}
	}
}

// Two processes interleave transfers on one engine, each parking in its
// fan-out while the other runs on a transfer record of its own, and each
// gets back its own bytes and its own errors: one process's layout ends in
// an object that does not exist, so every one of its transfers fails on
// that column and on no other, while the other's all succeed.
func TestInterleavedTransfersOnOneEngine(t *testing.T) {
	cl, lw := engineCluster(4)
	c := cl.NewClient(lw, 0)
	cl.Spawn("app", func(p *sim.Proc) {
		caps := appSetup(t, p, c)
		eng := stripe.NewEngine(c, caps, 2) // a narrow window: every fan-out queues and parks
		good := makeLayout(t, p, c, caps, 4<<10)
		bad := makeLayout(t, p, c, caps, 4<<10)
		bad.Objs[3].ID += 1 << 20
		var wg sim.WaitGroup
		inside, overlapped := 0, false // processes inside a transfer; were both ever?
		wg.Add(2)
		for proc, l := range []stripe.Layout{good, bad} {
			p.Kernel().Spawn("user", func(q *sim.Proc) {
				defer wg.Done()
				for round := 0; round < 6; round++ {
					data := make([]byte, 30_000+round*1_111)
					rand.New(rand.NewSource(int64(10*proc + round))).Read(data)
					inside++
					overlapped = overlapped || inside == 2
					_, werr := eng.WriteAt(q, l, int64(round*7_000), netsim.BytesPayload(data))
					got, rerr := eng.ReadAt(q, l, int64(round*7_000), int64(len(data)))
					inside--
					if proc == 0 {
						if werr != nil || rerr != nil {
							t.Errorf("round %d: the good layout's transfers failed: %v, %v", round, werr, rerr)
						} else if !bytes.Equal(got.Data, data) {
							t.Errorf("round %d: the good layout read back other bytes", round)
						}
						continue
					}
					if !errors.Is(werr, osd.ErrNoObject) || !strings.Contains(werr.Error(), "col 3 copy 0") || strings.Contains(werr.Error(), "col 0") {
						t.Errorf("round %d: the bad layout's write failed with %v, want its column 3 alone", round, werr)
					}
					// Requests come in first-touch order: column 3's index
					// depends on the column the range starts in.
					want := fmt.Sprintf("stripe/read[%d]", (3-round*7_000/(4<<10)%4+4)%4)
					if !errors.Is(rerr, osd.ErrNoObject) || !strings.Contains(rerr.Error(), want) || strings.Count(rerr.Error(), "stripe/read[") != 1 {
						t.Errorf("round %d: the bad layout's read failed with %v, want %s alone", round, rerr, want)
					}
				}
			})
		}
		wg.Wait(p)
		if !overlapped {
			t.Error("the two processes never were inside transfers at once")
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}
