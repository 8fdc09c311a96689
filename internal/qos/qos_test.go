package qos_test

import (
	"errors"
	"testing"
	"time"

	"lwfs/internal/metrics"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/qos"
	"lwfs/internal/sim"
)

// req is a fake Classified request body.
type req struct {
	tenant uint64
	bytes  int64
}

func (r req) QoSTenant() (uint64, int64) { return r.tenant, r.bytes }

const kb = 1 << 10

// rig is the unit-test harness: a bare kernel, a registry on its clock, and
// an admission controller under scope "qos.t".
type admRig struct {
	k   *sim.Kernel
	reg *metrics.Registry
	a   *qos.Admission
}

func newAdmRig(cfg qos.Config) *admRig {
	k := sim.NewKernel()
	reg := metrics.NewRegistry(k.Now)
	return &admRig{k: k, reg: reg, a: qos.NewAdmission(k, reg.Scope("qos").Scope("t"), cfg)}
}

func (r *admRig) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	r.k.Spawn("test", fn)
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
}

func submit(t *testing.T, a *qos.Admission, class uint8, tenant uint64, bytes int64) {
	t.Helper()
	if err := a.Submit(portals.Delivery{Class: class, Body: req{tenant: tenant, bytes: bytes}}); err != nil {
		t.Fatalf("submit tenant %d: %v", tenant, err)
	}
}

// TestQoSDRRFairness: two tenants, one of which submitted its
// whole backlog first, must receive byte-equal service over every prefix of
// the dispatch sequence (within one quantum plus one max request) — the
// point of DRR over FIFO.
func TestQoSDRRFairness(t *testing.T) {
	const (
		quantum = 256 * kb // the admission's DRR quantum
		reqSize = 128 * kb
		nReqs   = 40
	)
	r := newAdmRig(qos.Config{MaxQueue: 1024})
	r.run(t, func(p *sim.Proc) {
		// Worst case for fairness: tenant 1's entire backlog queued before
		// tenant 2's first request.
		for i := 0; i < nReqs; i++ {
			submit(t, r.a, qos.ClassForeground, 1, reqSize)
		}
		for i := 0; i < nReqs; i++ {
			submit(t, r.a, qos.ClassForeground, 2, reqSize)
		}
		got := map[uint64]int64{}
		bound := int64(quantum + reqSize)
		for i := 0; i < 2*nReqs; i++ {
			d := r.a.Next(p)
			rq := d.Body.(req)
			got[rq.tenant] += rq.bytes
			bothBacklogged := got[1] < nReqs*reqSize && got[2] < nReqs*reqSize
			if diff := got[1] - got[2]; bothBacklogged && (diff > bound || diff < -bound) {
				t.Fatalf("after %d dispatches service skew %d bytes exceeds quantum+maxreq %d", i+1, diff, bound)
			}
		}
		if r.a.Len() != 0 {
			t.Fatalf("queue not drained: %d left", r.a.Len())
		}
	})
}

// TestQoSPriorityLane: foreground requests submitted AFTER a queued
// background backlog are all dispatched before any background request.
func TestQoSPriorityLane(t *testing.T) {
	r := newAdmRig(qos.Config{MaxQueue: 64})
	r.run(t, func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			submit(t, r.a, qos.ClassBackground, 5, 64*kb)
		}
		for i := 0; i < 10; i++ {
			submit(t, r.a, qos.ClassForeground, 6, 64*kb)
		}
		for i := 0; i < 10; i++ {
			if d := r.a.Next(p); d.Class != qos.ClassForeground {
				t.Fatalf("dispatch %d: class %d before foreground drained", i, d.Class)
			}
		}
		for i := 0; i < 10; i++ {
			if d := r.a.Next(p); d.Class != qos.ClassBackground {
				t.Fatalf("background dispatch %d: class %d", i, d.Class)
			}
		}
	})
}

// TestQoSOverloadShed: submissions beyond MaxQueue fail with ErrOverload and
// are counted, and the queue itself still drains intact.
func TestQoSOverloadShed(t *testing.T) {
	r := newAdmRig(qos.Config{MaxQueue: 4})
	r.run(t, func(p *sim.Proc) {
		var shed int
		for i := 0; i < 6; i++ {
			err := r.a.Submit(portals.Delivery{Body: req{tenant: 9, bytes: 32 * kb}})
			if err != nil {
				if !errors.Is(err, portals.ErrOverload) {
					t.Fatalf("submit %d: %v, want ErrOverload", i, err)
				}
				shed++
			}
		}
		if shed != 2 {
			t.Fatalf("shed %d submissions, want 2", shed)
		}
		if n := r.reg.Counter("qos.t.shed").Value(); n != 2 {
			t.Fatalf("shed counter %d, want 2", n)
		}
		if n := r.reg.Counter("qos.t.tenant.9.shed_bytes").Value(); n != 2*32*kb {
			t.Fatalf("tenant shed_bytes %d, want %d", n, 2*32*kb)
		}
		for i := 0; i < 4; i++ {
			r.a.Next(p)
		}
		if r.a.Len() != 0 {
			t.Fatalf("queue not drained: %d left", r.a.Len())
		}
		if n := r.reg.Counter("qos.t.admitted").Value(); n != 4 {
			t.Fatalf("admitted %d, want 4", n)
		}
	})
}

// TestQoSControlOpMinCost: zero-byte control ops are charged the nominal
// minimum, so splitting work into many tiny ops cannot dodge fair-share
// accounting.
func TestQoSControlOpMinCost(t *testing.T) {
	r := newAdmRig(qos.Config{MaxQueue: 64})
	r.run(t, func(p *sim.Proc) {
		submit(t, r.a, qos.ClassForeground, 3, 0)
		r.a.Next(p)
		if n := r.reg.Counter("qos.t.tenant.3.admitted_bytes").Value(); n != kb {
			t.Fatalf("control op accounted %d bytes, want min cost %d", n, kb)
		}
	})
}

// TestQoSClear: Clear drops everything queued, reports the count, resets
// depth, and the controller keeps working afterwards.
func TestQoSClear(t *testing.T) {
	r := newAdmRig(qos.Config{MaxQueue: 64})
	r.run(t, func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			submit(t, r.a, qos.ClassForeground, 1, 64*kb)
		}
		if n := r.a.Clear(); n != 5 {
			t.Fatalf("Clear dropped %d, want 5", n)
		}
		if r.a.Len() != 0 {
			t.Fatalf("Len %d after Clear", r.a.Len())
		}
		submit(t, r.a, qos.ClassForeground, 2, 32*kb)
		if rq := r.a.Next(p).Body.(req); rq.tenant != 2 {
			t.Fatalf("post-Clear dispatch tenant %d, want 2", rq.tenant)
		}
	})
}

// --- Breaker ---

type brkRig struct {
	k   *sim.Kernel
	reg *metrics.Registry
	b   *qos.Breaker
}

func newBrkRig(pol qos.BreakerPolicy) *brkRig {
	k := sim.NewKernel()
	reg := metrics.NewRegistry(k.Now)
	return &brkRig{k: k, reg: reg, b: qos.NewBreaker(k, reg.Scope("qos").Scope("breaker"), pol)}
}

// count reads one of the breaker's registered counters.
func (r *brkRig) count(name string) int64 {
	return int64(r.reg.Snapshot().Value("qos.breaker." + name))
}

func (r *brkRig) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	r.k.Spawn("test", fn)
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
}

const (
	brkNode = netsim.NodeID(7)
	brkPt   = portals.Index(9)
)

// TestBreakerLifecycle walks the full state machine: closed -> open after
// Threshold consecutive timeouts -> fast-fail while cooling -> half-open
// single probe -> re-open with doubled cooldown on probe failure -> closed
// on probe success.
func TestBreakerLifecycle(t *testing.T) {
	pol := qos.BreakerPolicy{Threshold: 2, Cooldown: 10 * time.Millisecond, MaxCooldown: 40 * time.Millisecond}
	r := newBrkRig(pol)
	r.run(t, func(p *sim.Proc) {
		b := r.b
		if !b.Allow(brkNode, brkPt) || b.HealthOf(brkNode, brkPt) != qos.Ok {
			t.Fatal("fresh circuit not closed/ok")
		}
		b.Record(brkNode, brkPt, portals.ErrRPCTimeout)
		if h := b.HealthOf(brkNode, brkPt); h != qos.Degraded {
			t.Fatalf("one failure: health %v, want degraded", h)
		}
		b.Record(brkNode, brkPt, portals.ErrRPCTimeout)
		if r.count("opens") != 1 || b.HealthOf(brkNode, brkPt) != qos.Down {
			t.Fatalf("opens=%d health=%v after threshold, want 1/down", r.count("opens"), b.HealthOf(brkNode, brkPt))
		}
		if b.Allow(brkNode, brkPt) {
			t.Fatal("open circuit allowed an attempt inside cooldown")
		}
		if r.count("fast_fails") != 1 {
			t.Fatalf("fast_fails %d, want 1", r.count("fast_fails"))
		}

		// Cooldown expires: exactly one probe goes out; it fails, so the
		// circuit re-opens with a doubled cooldown.
		p.Sleep(pol.Cooldown)
		if !b.Allow(brkNode, brkPt) {
			t.Fatal("no probe admitted after cooldown")
		}
		if b.Allow(brkNode, brkPt) {
			t.Fatal("second concurrent probe admitted")
		}
		b.Record(brkNode, brkPt, portals.ErrOverload) // overload counts as failure
		if b.HealthOf(brkNode, brkPt) != qos.Down {
			t.Fatal("failed probe did not re-open")
		}
		p.Sleep(pol.Cooldown) // old cooldown: not enough now
		if b.Allow(brkNode, brkPt) {
			t.Fatal("re-opened circuit honored the un-doubled cooldown")
		}
		p.Sleep(pol.Cooldown) // 2x total: doubled cooldown has passed
		if !b.Allow(brkNode, brkPt) {
			t.Fatal("no probe after doubled cooldown")
		}
		b.Record(brkNode, brkPt, nil)
		if r.count("closes") != 1 || b.HealthOf(brkNode, brkPt) != qos.Ok {
			t.Fatalf("closes=%d health=%v after good probe, want 1/ok", r.count("closes"), b.HealthOf(brkNode, brkPt))
		}
		if !b.Allow(brkNode, brkPt) {
			t.Fatal("closed circuit refused an attempt")
		}
	})
}

// TestBreakerApplicationErrorsReset: an error ANSWER (the server is alive)
// resets the consecutive-failure streak; only timeouts and overloads count.
func TestBreakerApplicationErrorsReset(t *testing.T) {
	r := newBrkRig(qos.BreakerPolicy{Threshold: 2})
	r.run(t, func(p *sim.Proc) {
		b := r.b
		b.Record(brkNode, brkPt, portals.ErrRPCTimeout)
		b.Record(brkNode, brkPt, errors.New("no such object")) // resets streak
		b.Record(brkNode, brkPt, portals.ErrRPCTimeout)
		if r.count("opens") != 0 {
			t.Fatalf("opens=%d: application error did not reset the streak", r.count("opens"))
		}
		if h := b.HealthOf(brkNode, brkPt); h != qos.Degraded {
			t.Fatalf("health %v with one recent failure, want degraded", h)
		}
		b.Record(brkNode, brkPt, nil)
		if h := b.HealthOf(brkNode, brkPt); h != qos.Ok {
			t.Fatalf("health %v after success, want ok", h)
		}
	})
}

// TestBreakerCircuitsAreIndependent: opening (node A, portal X) must not
// affect other nodes or other portals on the same node.
func TestBreakerCircuitsAreIndependent(t *testing.T) {
	r := newBrkRig(qos.BreakerPolicy{Threshold: 1})
	r.run(t, func(p *sim.Proc) {
		b := r.b
		b.Record(brkNode, brkPt, portals.ErrRPCTimeout)
		if b.HealthOf(brkNode, brkPt) != qos.Down {
			t.Fatal("threshold-1 circuit not open after one timeout")
		}
		if b.HealthOf(brkNode, brkPt+1) != qos.Ok || b.HealthOf(brkNode+1, brkPt) != qos.Ok {
			t.Fatal("unrelated circuits affected")
		}
		if !b.Allow(brkNode, brkPt+1) || !b.Allow(brkNode+1, brkPt) {
			t.Fatal("unrelated circuits refused attempts")
		}
	})
}
