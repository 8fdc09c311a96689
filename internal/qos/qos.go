// Package qos is the multi-tenant quality-of-service layer: server-side
// admission control (deficit-round-robin fair queues per tenant, byte-rate
// token buckets, bounded depth with explicit shed, a strict-priority lane for
// foreground traffic) and client-side circuit breakers with per-endpoint
// health states.
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
	"time"

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

	// Quantum is the DRR quantum in bytes — how much service credit a
	// tenant earns per round-robin visit. A tenant with weight w earns
	// w×Quantum. Default 256 KiB (a quarter of the 1 MiB chunk size, so
	// one bulk write needs a few rounds and small ops interleave).
	Quantum int64

	// TenantBps caps each tenant's long-term admitted byte rate at
	// weight×TenantBps (token bucket). 0 disables rate capping — DRR
	// fairness alone arbitrates, and the system stays work-conserving.
	TenantBps float64

	// Weights assigns relative shares; tenants not listed get 1.0.
	Weights map[Tenant]float64
}

func (c Config) withDefaults() Config {
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.Quantum <= 0 {
		c.Quantum = 256 << 10
	}
	return c
}

// minCost is the accounted cost of a request that carries no byte count
// (control ops: stat, sync, list...). Charging them a nominal cost keeps a
// tenant from dodging its share by splitting work into many tiny ops.
const minCost = 1 << 10

// entry is one queued delivery with its accounted cost.
type entry struct {
	d    portals.Delivery
	cost int64
}

// tq is one tenant's FIFO within one priority band, plus its DRR and
// token-bucket state.
type tq struct {
	tenant Tenant
	weight float64
	q      []entry

	// DRR: deficit accumulates quantum×weight once per round-visit
	// (granted marks that this visit's quantum has been credited, so a
	// tenant that keeps dispatching from the head of the ring cannot earn
	// more than one quantum per visit).
	deficit int64
	granted bool

	// Token bucket, charge-negative form: tokens never exceed 0, each
	// dispatch subtracts its cost, refill at weight×TenantBps climbs back
	// toward 0. Eligible iff tokens >= 0 — so a tenant can overdraw by at
	// most one request, then waits out the debt. No banked bursts.
	tokens     float64
	lastRefill sim.Time

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
// dispatchable. Within a band, tenants share by deficit round-robin over
// accounted bytes; optional token buckets cap each tenant's absolute rate.
//
// All methods run on the simulation's single logical thread (portals
// workers and the intake daemon are sim procs), so no locking.
type Admission struct {
	k     *sim.Kernel
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
func NewAdmission(k *sim.Kernel, scope metrics.Scope, cfg Config) *Admission {
	a := &Admission{
		k:     k,
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

func (a *Admission) weightOf(t Tenant) float64 {
	if w, ok := a.cfg.Weights[t]; ok && w > 0 {
		return w
	}
	return 1
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
			weight:        a.weightOf(t),
			lastRefill:    a.k.Now(),
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

// Next implements portals.Dispatcher: return the queued delivery the
// fair-share and rate policy dispatches next, or the zero Delivery when
// nothing is queued any more (Clear raced a sleeping worker).
func (a *Admission) Next(p *sim.Proc) portals.Delivery {
	for a.queued > 0 {
		d, ok, wait := a.pick()
		if ok {
			return d
		}
		// Everything queued is rate-limited; sleep until the earliest
		// bucket refills and retry.
		if wait <= 0 {
			wait = time.Millisecond
		}
		p.Sleep(wait)
	}
	return portals.Delivery{}
}

// pick runs one strict-priority + DRR selection pass. Returns the chosen
// delivery, or (ok=false, wait>0) if every queued tenant is bucket-blocked —
// wait is the shortest time until one becomes eligible.
func (a *Admission) pick() (portals.Delivery, bool, time.Duration) {
	now := a.k.Now()
	minWait := time.Duration(0)
	for _, b := range a.bands {
		if len(b.active) == 0 {
			continue
		}
		// DRR over the active ring. Terminates: each full lap either
		// dispatches, or every tenant is bucket-blocked (we bail with a
		// wait hint), or deficits grew by a quantum — and lapsNeeded is
		// bounded by maxCost/quantum.
		blocked := 0
		for scanned := 0; len(b.active) > 0; {
			q := b.active[0]
			if w := q.refillWait(now, a.cfg.TenantBps); w > 0 {
				// Rate-capped: rotate without granting a quantum.
				if minWait == 0 || w < minWait {
					minWait = w
				}
				b.rotate()
				blocked++
				scanned++
				if scanned >= len(b.active) && blocked >= len(b.active) {
					break // whole band is bucket-blocked
				}
				continue
			}
			if !q.granted {
				q.deficit += int64(float64(a.cfg.Quantum) * q.weight)
				q.granted = true
			}
			head := q.q[0]
			if q.deficit >= head.cost {
				return a.dispatch(b, q, head), true, 0
			}
			// Not enough credit this visit; back of the ring, and the
			// next visit grants a fresh quantum.
			q.granted = false
			b.rotate()
			scanned++
			blocked = 0
			continue
		}
	}
	return portals.Delivery{}, false, minWait
}

// dispatch pops the head of q, charges DRR deficit and the token bucket,
// and updates accounting. q stays at the head of the ring while its deficit
// covers more work (granted stays true: no extra quantum for staying).
func (a *Admission) dispatch(b *band, q *tq, head entry) portals.Delivery {
	q.q = q.q[1:]
	q.deficit -= head.cost
	if a.cfg.TenantBps > 0 {
		q.tokens -= float64(head.cost)
	}
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

// refillWait refills q's token bucket up to now and reports how long until
// the tenant is eligible (0 = eligible now).
func (q *tq) refillWait(now sim.Time, bps float64) time.Duration {
	if bps <= 0 {
		return 0
	}
	rate := bps * q.weight
	if now > q.lastRefill {
		q.tokens += rate * now.Sub(q.lastRefill).Seconds()
		if q.tokens > 0 {
			q.tokens = 0
		}
		q.lastRefill = now
	}
	if q.tokens >= 0 {
		return 0
	}
	return time.Duration(-q.tokens / rate * float64(time.Second))
}

func (b *band) rotate() {
	if len(b.active) > 1 {
		b.active = append(b.active[1:], b.active[0])
	}
}

// Len implements portals.Dispatcher.
func (a *Admission) Len() int { return a.queued }

// Clear implements portals.Dispatcher: drop everything queued (server
// crash) and report how many were dropped.
func (a *Admission) Clear() int {
	n := a.queued
	for i := range a.bands {
		// Empty the dropped queues in place: their queue_depth gauges
		// stay registered until the tenant reappears.
		for _, q := range a.bands[i].tenants {
			q.q = nil
		}
		a.bands[i] = &band{tenants: make(map[Tenant]*tq)}
	}
	a.queued = 0
	return n
}
