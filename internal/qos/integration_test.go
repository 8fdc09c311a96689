package qos_test

// End-to-end admission and breaker tests over the real RPC stack: tenants
// are containers, requests flow client -> portals -> admission -> storage
// handlers, and the assertions read the same qos.* instruments operators
// would. These run in the CI race job and (the chaos one) the seed matrix.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"lwfs/internal/authn"
	"lwfs/internal/authz"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/qos"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/testrig"
)

// tenantSession is one tenant's identity: its own container (= tenant ID)
// and caps, plus an object on the shared storage server.
type tenantSession struct {
	cid  authz.ContainerID
	caps map[authz.Op]authz.Capability
	ref  storage.ObjRef
}

func newTenantSession(t *testing.T, p *sim.Proc, r *testrig.Rig, node int, user authn.Principal, srv *storage.Server) *tenantSession {
	t.Helper()
	cred, err := r.AuthnClient(node).Login(p, user, testrig.Secret(user))
	if err != nil {
		t.Fatalf("login %s: %v", user, err)
	}
	az := r.AuthzClient(node)
	cid, err := az.CreateContainer(p, cred)
	if err != nil {
		t.Fatalf("container: %v", err)
	}
	caps, err := az.GetCaps(p, cred, cid, authz.OpCreate, authz.OpWrite, authz.OpRead)
	if err != nil {
		t.Fatalf("getcaps: %v", err)
	}
	s := &tenantSession{cid: cid, caps: make(map[authz.Op]authz.Capability)}
	for _, c := range caps {
		s.caps[c.Op] = c
	}
	sc := storage.NewClient(r.Caller(node))
	s.ref, err = sc.Create(p, storage.Target{Node: srv.Node(), Port: srv.RPCPort()}, s.caps[authz.OpCreate], cid)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	return s
}

// TestQoSFairShareStress: three tenants on separate nodes hammer one
// admission-controlled storage server with very different request
// granularities (256 KiB, 128 KiB, 64 KiB) but equal total demand. The
// fair-queue invariant: while all tenants are backlogged, admitted bytes
// stay equal within one DRR quantum plus a max request per tenant — FIFO
// would instead track arrival order and request size. Afterwards, exact
// counter totals prove no request was lost or double-admitted. Runs under
// -race in CI.
func TestQoSFairShareStress(t *testing.T) {
	const (
		kb      = int64(1) << 10
		quantum = 256 * kb // the admission's DRR quantum
		procs   = 6        // writer procs per tenant
	)
	// Per-tenant request sizes; counts keep total bytes equal (6 MiB each).
	sizes := []int64{256 * kb, 128 * kb, 64 * kb}
	writes := []int{4, 8, 16} // per proc
	users := testrig.Users
	totalBytes := int64(procs) * int64(writes[0]) * sizes[0]

	r := testrig.New(5)
	cfg := storage.DefaultConfig()
	cfg.Threads = 2 // deep admission queue: service is the bottleneck
	cfg.QoS = &qos.Config{MaxQueue: 1024}
	srv := r.StorageServer(1, cfg)
	reg := r.Eps[1].Metrics()

	sessions := make([]*tenantSession, 3)
	inflight := make([]int, 3)
	var writersDone int

	for ti := 0; ti < 3; ti++ {
		ti := ti
		node := 2 + ti
		r.Go(fmt.Sprintf("tenant%d", ti), func(p *sim.Proc) {
			sessions[ti] = newTenantSession(t, p, r, node, users[ti], srv)
			for w := 0; w < procs; w++ {
				w := w
				r.Go(fmt.Sprintf("tenant%d/w%d", ti, w), func(p *sim.Proc) {
					defer func() { writersDone++ }()
					sc := storage.NewClient(r.Caller(node))
					s := sessions[ti]
					base := int64(w) * int64(writes[ti]) * sizes[ti]
					for i := 0; i < writes[ti]; i++ {
						inflight[ti]++
						n, err := sc.Write(p, s.ref, s.caps[authz.OpWrite], base+int64(i)*sizes[ti], netsim.SyntheticPayload(sizes[ti]))
						inflight[ti]--
						if err != nil || n != sizes[ti] {
							t.Errorf("tenant %d write: n=%d err=%v", ti, n, err)
							return
						}
					}
				})
			}
		})
	}

	admittedOf := func(ti int) int64 {
		if sessions[ti] == nil {
			return 0
		}
		return reg.Counter(fmt.Sprintf("qos.osd1.tenant.%d.admitted_bytes", uint64(sessions[ti].cid))).Value()
	}

	// Invariant monitor: whenever every tenant has >= 5 requests in flight
	// (Threads=2, so each then holds >= 3 queued at admission — solidly
	// backlogged), the pairwise admitted-byte skew must stay within one
	// quantum plus two max requests (one may be mid-dispatch on each side).
	var samples int
	bound := quantum + 2*sizes[0]
	r.Go("monitor", func(p *sim.Proc) {
		for writersDone < 3*procs {
			if inflight[0] >= 5 && inflight[1] >= 5 && inflight[2] >= 5 {
				var vals [3]int64
				for ti := range vals {
					vals[ti] = admittedOf(ti)
				}
				lo, hi := vals[0], vals[0]
				for _, v := range vals[1:] {
					if v < lo {
						lo = v
					}
					if v > hi {
						hi = v
					}
				}
				if hi-lo > bound {
					t.Errorf("admitted-byte skew %d exceeds quantum+2*maxreq %d (vals=%v) at %v", hi-lo, bound, vals, p.Now())
					return
				}
				samples++
			}
			p.Sleep(200 * time.Microsecond)
		}
	})
	r.Run(t)

	if samples < 10 {
		t.Fatalf("only %d backlogged fairness samples — load never queued deeply enough", samples)
	}
	// Exact accounting: per tenant, one create (min cost 1 KiB) plus every
	// write's bytes, nothing lost, nothing duplicated, nothing shed.
	for ti := range sessions {
		want := totalBytes + kb
		if got := admittedOf(ti); got != want {
			t.Errorf("tenant %d admitted_bytes %d, want exactly %d", ti, got, want)
		}
	}
	if shed := reg.Counter("qos.osd1.shed").Value(); shed != 0 {
		t.Errorf("shed %d requests with an uncapped queue", shed)
	}
	if n := srv.Admission().Len(); n != 0 {
		t.Errorf("admission queue not drained: %d", n)
	}
}

// TestQoSOverloadShedRPC: a storage server with a tiny admission queue and
// one service thread sheds a synchronized 16-client burst with ErrOverload —
// immediately, at submit time, not after the request ages into a timeout.
func TestQoSOverloadShedRPC(t *testing.T) {
	const (
		nClients = 16
		wsize    = 64 << 10
	)
	r := testrig.New(3)
	cfg := storage.DefaultConfig()
	cfg.Threads = 1
	cfg.QoS = &qos.Config{MaxQueue: 4}
	srv := r.StorageServer(1, cfg)
	reg := r.Eps[1].Metrics()

	var oks, sheds int
	r.Go("flood", func(p *sim.Proc) {
		s := newTenantSession(t, p, r, 2, "alice", srv)
		for i := 0; i < nClients; i++ {
			i := i
			r.Go(fmt.Sprintf("c%d", i), func(p *sim.Proc) {
				sc := storage.NewClient(r.Caller(2))
				start := p.Now()
				_, err := sc.Write(p, s.ref, s.caps[authz.OpWrite], int64(i)*wsize, netsim.SyntheticPayload(wsize))
				elapsed := p.Now().Sub(start)
				switch {
				case err == nil:
					oks++
				case errors.Is(err, portals.ErrOverload):
					sheds++
					// The shed answer comes from the intake daemon before
					// service — a network round trip, not a service wait.
					if elapsed > time.Millisecond {
						t.Errorf("shed reply took %v, want sub-millisecond fast-fail", elapsed)
					}
				default:
					t.Errorf("client %d: %v", i, err)
				}
			})
		}
	})
	r.Run(t)

	if oks+sheds != nClients {
		t.Fatalf("oks=%d sheds=%d, want %d total", oks, sheds, nClients)
	}
	if sheds < 8 || oks < 2 {
		t.Fatalf("oks=%d sheds=%d: burst did not overflow the 4-deep queue as scripted", oks, sheds)
	}
	if n := reg.Counter("qos.osd1.shed").Value(); n != int64(sheds) {
		t.Fatalf("qos shed counter %d, clients saw %d ErrOverload", n, sheds)
	}
	if n := srv.Admission().Len(); n != 0 {
		t.Fatalf("admission queue not drained: %d", n)
	}
}

// TestQoSBreakerFlappingChaos: a storage server flaps (crash, restart,
// crash, restart) under a steady writer that fails over to a second
// server. The breaker must open on the first timeouts, convert the rest of
// each outage into zero-wait fast-fails (instead of ~40 full retry
// timeouts), and close again via a half-open probe once the server is
// back. Runs in the chaos seed matrix; the seed varies retry jitter.
func TestQoSBreakerFlappingChaos(t *testing.T) {
	const (
		iters = 200
		wsize = 64 << 10
	)
	seed := testrig.SeedFromEnv(1)
	retry := portals.RetryPolicy{
		MaxAttempts: 2,
		Timeout:     5 * time.Millisecond,
		Backoff:     500 * time.Microsecond,
		MaxBackoff:  time.Millisecond,
		Jitter:      100 * time.Microsecond,
	}
	pol := qos.BreakerPolicy{Threshold: 2, Cooldown: 10 * time.Millisecond, MaxCooldown: 40 * time.Millisecond}

	r := testrig.New(4)
	srvA := r.StorageServer(1, storage.DefaultConfig())
	srvB := r.StorageServer(2, storage.DefaultConfig())

	caller := r.Caller(3)
	caller.SetRetry(retry, sim.NewRand(seed))
	brk := qos.NewBreakerFor(r.Eps[3], pol)
	caller.SetBreaker(brk)
	sc := storage.NewClient(caller)

	log := testrig.RunChaos(r.K,
		testrig.ChaosEvent{At: 20 * time.Millisecond, Name: "crashA", Do: func(p *sim.Proc) { srvA.Crash() }},
		testrig.ChaosEvent{At: 70 * time.Millisecond, Name: "restartA", Do: func(p *sim.Proc) {
			if _, err := srvA.Restart(p); err != nil {
				t.Errorf("restart: %v", err)
			}
		}},
		testrig.ChaosEvent{At: 120 * time.Millisecond, Name: "crashA2", Do: func(p *sim.Proc) { srvA.Crash() }},
		testrig.ChaosEvent{At: 170 * time.Millisecond, Name: "restartA2", Do: func(p *sim.Proc) {
			if _, err := srvA.Restart(p); err != nil {
				t.Errorf("restart: %v", err)
			}
		}},
	)

	var timeouts, fastRoutes, rerouted int
	r.Go("writer", func(p *sim.Proc) {
		s := newTenantSession(t, p, r, 3, "alice", srvA)
		refB, err := sc.Create(p, storage.Target{Node: srvB.Node(), Port: srvB.RPCPort()}, s.caps[authz.OpCreate], s.cid)
		if err != nil {
			t.Fatalf("create B: %v", err)
		}
		for i := 0; i < iters; i++ {
			start := p.Now()
			_, err := sc.Write(p, s.ref, s.caps[authz.OpWrite], 0, netsim.SyntheticPayload(wsize))
			elapsed := p.Now().Sub(start)
			if err != nil {
				switch {
				case errors.Is(err, portals.ErrCircuitOpen):
					if elapsed == 0 {
						fastRoutes++ // refused with ZERO wait — the point
					}
				case errors.Is(err, portals.ErrRPCTimeout):
					timeouts++
				default:
					t.Fatalf("iter %d: unexpected error %v", i, err)
				}
				// Route around: the healthy server must absorb the write.
				if _, err := sc.Write(p, refB, s.caps[authz.OpWrite], 0, netsim.SyntheticPayload(wsize)); err != nil {
					t.Fatalf("iter %d: failover write: %v", i, err)
				}
				rerouted++
			}
			p.Sleep(time.Millisecond)
		}
		// Recovery: keep probing until the breaker closes and A serves
		// again (bounded by sim.MaxTime only through the iteration cap).
		for i := 0; i < 200; i++ {
			if _, err := sc.Write(p, s.ref, s.caps[authz.OpWrite], 0, netsim.SyntheticPayload(wsize)); err == nil {
				break
			}
			p.Sleep(5 * time.Millisecond)
		}
		if h := brk.HealthOf(srvA.Node(), srvA.RPCPort()); h != qos.Ok {
			t.Errorf("final health of A: %v, want ok", h)
		}
	})
	r.Run(t)

	if len(log.Events) != 4 {
		t.Fatalf("chaos schedule ran %d events, want 4: %v", len(log.Events), log.Events)
	}
	if opens := r.Metric("qos.breaker.*.opens"); opens < 2 {
		t.Errorf("breaker opened %d times across two outages, want >= 2", opens)
	}
	if r.Metric("qos.breaker.*.closes") < 1 {
		t.Errorf("breaker never closed after recovery")
	}
	if fastFails := r.Metric("qos.breaker.*.fast_fails"); fastFails < 1 || fastRoutes < 1 {
		t.Errorf("no zero-wait fast-fails (counter=%d, observed=%d)", fastFails, fastRoutes)
	}
	if rerouted < 10 {
		t.Errorf("only %d writes rerouted during ~100ms of outage", rerouted)
	}
	// The outages cover ~50 writer iterations. Without a breaker each
	// would burn the full 2x5ms retry budget; with it, only the opening
	// failures and the half-open probes may wait out a timeout.
	if timeouts > 12 {
		t.Errorf("%d full-timeout waits, want <= 12 (breaker should fast-fail the rest)", timeouts)
	}
}
