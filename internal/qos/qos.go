// Package qos is the multi-tenant quality-of-service layer: server-side
// admission control (deficit-round-robin fair queues per tenant, bounded
// depth with explicit shed, a strict-priority lane for foreground traffic)
// and client-side circuit breakers with per-endpoint health states.
//
// The paper's design pushes policy out of the storage servers; qos is where
// the policy that CANNOT live anywhere else goes — arbitration between
// mutually distrustful tenants has to happen where their requests meet, on
// the server, and overload signalling has to happen before a request ages
// into a timeout. Tenant identity already rides on every request via the
// capability's container (internal/authz), so admission keys on that.
//
// Admission implements portals.Dispatcher and plugs in behind any RPC server
// (storage, burst) via Server.SetDispatcher. Breaker implements
// portals.Breaker and arms any Caller via Caller.SetBreaker.
package qos

import (
	"fmt"

	"lwfs/internal/metrics"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
)

// Tenant identifies the paying party behind a request — the capability's
// container ID on storage/burst requests. Tenant 0 is the "unclassified"
// bucket for requests that carry no identity (admin control ops).
type Tenant uint64

// Scheduling classes, stamped on requests by Caller.SetClass. Foreground is
// the zero value so unclassified traffic competes at interactive priority;
// background (burst drain batches) runs only when no foreground work is
// dispatchable.
const (
	ClassForeground uint8 = 0
	ClassBackground uint8 = 1
)

// Classified is implemented by request body types that can identify their
// tenant and wire cost. It is structural on purpose: request types in
// internal/storage and internal/burst implement it without importing qos,
// and qos classifies them without importing their packages.
type Classified interface {
	QoSTenant() (tenant uint64, bytes int64)
}

// Config parameterizes an admission controller. The zero value is usable:
// defaults are filled in by NewAdmission.
type Config struct {
	// MaxQueue bounds total queued requests (all tenants, both classes).
	// Submissions beyond it are shed with portals.ErrOverload. Default 256.
	MaxQueue int
}

func (c Config) withDefaults() Config {
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	return c
}

// quantum is the DRR quantum in bytes: the service credit every tenant
// earns per round-robin visit. A quarter of the 1 MiB chunk size, so one
// bulk write needs a few rounds and small ops interleave.
const quantum = 256 << 10

// minCost is the accounted cost of a request that carries no byte count
// (control ops: stat, sync, list...). Charging them a nominal cost keeps a
// tenant from dodging its share by splitting work into many tiny ops.
const minCost = 1 << 10

// entry is one queued delivery with its accounted cost.
type entry struct {
	d    portals.Delivery
	cost int64
}

// tq is one tenant's FIFO within one priority band, plus its DRR state.
type tq struct {
	tenant Tenant
	q      []entry

	// DRR: deficit accumulates a quantum once per round-visit (granted
	// marks that this visit's quantum has been credited, so a tenant that
	// keeps dispatching from the head of the ring cannot earn more than one
	// quantum per visit).
	deficit int64
	granted bool

	admittedBytes *metrics.Counter
	shedBytes     *metrics.Counter
}

// band is one strict-priority level: a DRR ring of active tenant queues.
type band struct {
	active  []*tq // round-robin ring; [0] is the current head
	tenants map[Tenant]*tq
}

// Admission is a portals.Dispatcher enforcing per-tenant fair shares.
// Foreground (class 0) requests strictly preempt background (class 1+):
// the background band is scanned only when no foreground request is
// dispatchable. Within a band, tenants share equally by deficit round-robin
// over accounted bytes.
//
// All methods run on the simulation's single logical thread (portals
// workers and the intake daemon are sim procs), so no locking.
type Admission struct {
	cfg   Config
	scope metrics.Scope

	bands  [2]*band
	queued int

	admitted      *metrics.Counter
	admittedBytes *metrics.Counter
	shedTotal     *metrics.Counter
	shedBytes     *metrics.Counter
}

// NewAdmission builds an admission controller registering instruments under
// scope (conventionally `qos.<server-name>`): admitted, admitted_bytes,
// shed, shed_bytes, queue_depth, and per-tenant
// `tenant.<id>.{admitted_bytes,shed_bytes,queue_depth}`.
func NewAdmission(_ *sim.Kernel, scope metrics.Scope, cfg Config) *Admission {
	a := &Admission{
		cfg:   cfg.withDefaults(),
		scope: scope,

		admitted:      scope.Counter("admitted"),
		admittedBytes: scope.Counter("admitted_bytes"),
		shedTotal:     scope.Counter("shed"),
		shedBytes:     scope.Counter("shed_bytes"),
	}
	for i := range a.bands {
		a.bands[i] = &band{tenants: make(map[Tenant]*tq)}
	}
	scope.GaugeFunc("queue_depth", func() int64 { return int64(a.queued) })
	return a
}

// classify extracts (tenant, cost) from a delivery body.
func classify(d portals.Delivery) (Tenant, int64) {
	var t Tenant
	var cost int64 = minCost
	if c, ok := d.Body.(Classified); ok {
		tenant, bytes := c.QoSTenant()
		t = Tenant(tenant)
		if bytes > cost {
			cost = bytes
		}
	}
	return t, cost
}

func (a *Admission) tenantScope(t Tenant) metrics.Scope {
	return a.scope.Scope("tenant").Scope(fmt.Sprintf("%d", t))
}

func (a *Admission) bandFor(class uint8) *band {
	if class >= ClassBackground {
		return a.bands[1]
	}
	return a.bands[0]
}

func (a *Admission) tqFor(b *band, t Tenant) *tq {
	q, ok := b.tenants[t]
	if !ok {
		ts := a.tenantScope(t)
		q = &tq{
			tenant:        t,
			admittedBytes: ts.Counter("admitted_bytes"),
			shedBytes:     ts.Counter("shed_bytes"),
		}
		qq := q
		ts.GaugeFunc("queue_depth", func() int64 { return int64(len(qq.q)) })
		b.tenants[t] = q
	}
	return q
}

// Submit implements portals.Dispatcher: admit or shed.
func (a *Admission) Submit(d portals.Delivery) error {
	t, cost := classify(d)
	if a.queued >= a.cfg.MaxQueue {
		a.shedTotal.Inc()
		a.shedBytes.Add(cost)
		a.tqFor(a.bandFor(d.Class), t).shedBytes.Add(cost)
		return portals.ErrOverload
	}
	b := a.bandFor(d.Class)
	q := a.tqFor(b, t)
	if len(q.q) == 0 {
		b.active = append(b.active, q)
	}
	q.q = append(q.q, entry{d: d, cost: cost})
	a.queued++
	return nil
}

// Next implements portals.Dispatcher: it dispatches the queued delivery
// strict priority and deficit round-robin pick, or returns the zero Delivery
// when nothing is queued any more (Clear ran since the service thread was
// woken).
func (a *Admission) Next(*sim.Proc) portals.Delivery {
	for _, b := range a.bands {
		// DRR over the active ring. Terminates: each full lap either
		// dispatches or grows every deficit by a quantum, and no request
		// costs more than a bounded number of quanta.
		for len(b.active) > 0 {
			q := b.active[0]
			if !q.granted {
				q.deficit += quantum
				q.granted = true
			}
			head := q.q[0]
			if q.deficit >= head.cost {
				return a.dispatch(b, q, head)
			}
			// Not enough credit this visit; back of the ring, and the
			// next visit grants a fresh quantum.
			q.granted = false
			b.rotate()
		}
	}
	return portals.Delivery{}
}

// dispatch pops the head of q, charges its DRR deficit, and updates
// accounting. q stays at the head of the ring while its deficit
// covers more work (granted stays true: no extra quantum for staying).
func (a *Admission) dispatch(b *band, q *tq, head entry) portals.Delivery {
	q.q = q.q[1:]
	q.deficit -= head.cost
	a.queued--
	a.admitted.Inc()
	a.admittedBytes.Add(head.cost)
	q.admittedBytes.Add(head.cost)
	if len(q.q) == 0 {
		// Empty queues leave the ring and forfeit their deficit — an
		// idle tenant must not bank credit against the future.
		q.deficit = 0
		q.granted = false
		b.active = b.active[1:]
	}
	return head.d
}

func (b *band) rotate() {
	if len(b.active) > 1 {
		b.active = append(b.active[1:], b.active[0])
	}
}

// Len implements portals.Dispatcher.
func (a *Admission) Len() int { return a.queued }

// Clear implements portals.Dispatcher: drop everything queued (server
// crash), discarding each delivery, and report how many were dropped.
func (a *Admission) Clear() int {
	n := a.queued
	for i := range a.bands {
		// Empty the dropped queues in place: their queue_depth gauges
		// stay registered until the tenant reappears.
		for _, q := range a.bands[i].tenants {
			for _, e := range q.q {
				e.d.Discard()
			}
			q.q = nil
		}
		a.bands[i] = &band{tenants: make(map[Tenant]*tq)}
	}
	a.queued = 0
	return n
}
