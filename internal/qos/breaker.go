package qos

import (
	"errors"
	"time"

	"lwfs/internal/metrics"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
)

// Health is the client's opinion of one (node, portal) service, derived
// from its circuit state. Failover and fan-out paths consult it to order
// candidates: Ok first, Degraded next, Down last (or skipped).
type Health int

const (
	Ok       Health = iota // circuit closed, no recent failures
	Degraded               // closed with recent failures, or probing half-open
	Down                   // circuit open: fast-fail until the cooldown passes
)

func (h Health) String() string {
	switch h {
	case Ok:
		return "ok"
	case Degraded:
		return "degraded"
	default:
		return "down"
	}
}

// BreakerPolicy parameterizes the circuit state machine. Zero value fields
// take defaults.
type BreakerPolicy struct {
	// Threshold is the consecutive-failure count that opens the circuit.
	// Default 3.
	Threshold int

	// Cooldown is how long an open circuit fast-fails before admitting a
	// single half-open probe. Doubles on every failed probe up to
	// MaxCooldown. Defaults: 250ms / 2s.
	Cooldown    time.Duration
	MaxCooldown time.Duration
}

func (p BreakerPolicy) withDefaults() BreakerPolicy {
	if p.Threshold <= 0 {
		p.Threshold = 3
	}
	if p.Cooldown <= 0 {
		p.Cooldown = 250 * time.Millisecond
	}
	if p.MaxCooldown <= 0 {
		p.MaxCooldown = 2 * time.Second
	}
	return p
}

const (
	stClosed = iota
	stOpen
	stHalfOpen
)

// circuit is the per-(node, portal) state.
type circuit struct {
	state    int
	fails    int // consecutive failures while closed
	openedAt sim.Time
	cooldown time.Duration
	probing  bool // a half-open probe is in flight; hold other callers back
}

type bkey struct {
	node netsim.NodeID
	pt   portals.Index
}

// Breaker is a client-side circuit breaker implementing portals.Breaker,
// with one circuit per (target node, portal index). Consecutive timeouts or
// overload sheds open the circuit; while open every attempt fast-fails with
// portals.ErrCircuitOpen (zero wait) until the cooldown admits one half-open
// probe, whose outcome closes or re-opens (with doubled cooldown).
//
// Failures are ONLY timeouts and overloads — an error answer like
// ErrNoObject proves the server is alive and resets the streak.
//
// Like everything in the sim, a Breaker runs on the single logical thread;
// it may be shared by every caller on a node (and is, in core.Client).
type Breaker struct {
	k   *sim.Kernel
	pol BreakerPolicy
	m   map[bkey]*circuit

	opens     *metrics.Counter
	closes    *metrics.Counter
	fastFails *metrics.Counter
}

// NewBreaker builds a breaker registering `opens`, `closes` (state
// transitions) and `fast_fails` (attempts refused while open) under scope.
func NewBreaker(k *sim.Kernel, scope metrics.Scope, pol BreakerPolicy) *Breaker {
	return &Breaker{
		k:         k,
		pol:       pol.withDefaults(),
		m:         make(map[bkey]*circuit),
		opens:     scope.Counter("opens"),
		closes:    scope.Counter("closes"),
		fastFails: scope.Counter("fast_fails"),
	}
}

// NewBreakerFor is NewBreaker scoped under `qos.breaker.<node-name>` of
// ep's registry — the conventional placement for a per-client breaker.
func NewBreakerFor(ep *portals.Endpoint, pol BreakerPolicy) *Breaker {
	return NewBreaker(ep.Kernel(), ep.Metrics().Scope("qos").Scope("breaker").Scope(ep.NodeName()), pol)
}

func (b *Breaker) circ(target netsim.NodeID, pt portals.Index) *circuit {
	k := bkey{node: target, pt: pt}
	c, ok := b.m[k]
	if !ok {
		c = &circuit{state: stClosed}
		b.m[k] = c
	}
	return c
}

// Allow implements portals.Breaker: may an attempt go out right now?
func (b *Breaker) Allow(target netsim.NodeID, pt portals.Index) bool {
	c := b.circ(target, pt)
	switch c.state {
	case stClosed:
		return true
	case stOpen:
		if b.k.Now().Sub(c.openedAt) >= c.cooldown {
			c.state = stHalfOpen
			c.probing = true
			return true // this caller is the probe
		}
		b.fastFails.Inc()
		return false
	default: // half-open
		if c.probing {
			b.fastFails.Inc()
			return false // one probe at a time
		}
		c.probing = true
		return true
	}
}

// Record implements portals.Breaker: feed an attempt's outcome back.
func (b *Breaker) Record(target netsim.NodeID, pt portals.Index, err error) {
	c := b.circ(target, pt)
	failure := portals.FailStop(err) || errors.Is(err, portals.ErrOverload)
	switch c.state {
	case stClosed:
		if !failure {
			c.fails = 0
			return
		}
		c.fails++
		if c.fails >= b.pol.Threshold {
			c.state = stOpen
			c.openedAt = b.k.Now()
			c.cooldown = b.pol.Cooldown
			b.opens.Inc()
		}
	case stHalfOpen:
		c.probing = false
		if failure {
			// Probe failed: back to open, exponentially longer.
			c.state = stOpen
			c.openedAt = b.k.Now()
			c.cooldown = 2 * c.cooldown
			if c.cooldown > b.pol.MaxCooldown {
				c.cooldown = b.pol.MaxCooldown
			}
			return
		}
		c.state = stClosed
		c.fails = 0
		b.closes.Inc()
	case stOpen:
		// A straggler attempt that was in flight when the circuit
		// opened; its outcome adds nothing.
	}
}

// HealthOf reports the current health of (target, pt). An open circuit past
// its cooldown still reads Down until some caller actually probes it.
func (b *Breaker) HealthOf(target netsim.NodeID, pt portals.Index) Health {
	c, ok := b.m[bkey{node: target, pt: pt}]
	if !ok {
		return Ok
	}
	switch c.state {
	case stOpen:
		return Down
	case stHalfOpen:
		return Degraded
	default:
		if c.fails > 0 {
			return Degraded
		}
		return Ok
	}
}
