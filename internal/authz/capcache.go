package authz

import (
	"fmt"

	"lwfs/internal/metrics"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
)

// CapCache is a data server's cache of verified capabilities (§3.1.2,
// Figure 4b): a capability is verified with the authorization service once
// and honored from the cache until it expires or the service calls back to
// invalidate it. Admit is the one admission rule every data tier applies, so
// a tier names only what a request needs — which operation, which container.
// The zero value is not usable; call Serve.
type CapCache struct {
	ep       *portals.Endpoint
	az       *Client
	port     portals.Index
	disabled bool
	caps     map[uint64]Capability
	// revoked holds every capability ID an invalidation has named. IDs are
	// never reissued and revocation is permanent, so an acceptance for one
	// of them is stale (see verify).
	revoked map[uint64]bool
	rpc     *portals.Server

	hits, misses, invalidated *metrics.Counter
}

// Serve binds the cache's invalidation portal at (ep, port), registers
// hits, misses and invalidated under scope, and verifies through az.
// disabled is the ablation arm: every admission takes the authorization
// round trip and nothing is remembered.
func (cc *CapCache) Serve(ep *portals.Endpoint, az *Client, port portals.Index, name string, scope metrics.Scope, disabled bool) {
	*cc = CapCache{
		ep: ep, az: az, port: port, disabled: disabled,
		caps:        make(map[uint64]Capability),
		revoked:     make(map[uint64]bool),
		hits:        scope.Counter("hits"),
		misses:      scope.Counter("misses"),
		invalidated: scope.Counter("invalidated"),
	}
	// The invalidation port is the authorization service's revocation
	// channel, not tenant traffic — admission control would let one tenant
	// delay another's revocations. //qos:exempt
	cc.rpc = portals.ServeOps(ep, port, name+"/capcache", 1, capCacheOps, cc)
}

// Admit applies the admission rule to a request that needs op on container
// cid: c must be present (ErrNoCap), authorize op (ErrWrongOp), name cid
// (ErrWrongContainer) — refusals that cost no round trip — and be genuine
// (ErrCapRejected wrapping the authorization service's verdict). When
// Client.Revoke has returned, Admit refuses every capability it revoked.
func (cc *CapCache) Admit(p *sim.Proc, c *Capability, op Op, cid ContainerID) error {
	if err := policy(c, op, cid); err != nil {
		return err
	}
	if err := cc.verify(p, c); err != nil {
		return fmt.Errorf("%w: %w", ErrCapRejected, err)
	}
	return nil
}

// policy is the request-shaped half of Admit. It is its own function so
// that its error formatting is off the stack before verify parks the
// service thread.
func policy(c *Capability, op Op, cid ContainerID) error {
	if *c == (Capability{}) {
		return ErrNoCap
	}
	if c.Op != op {
		return fmt.Errorf("%w: have %v, need %v", ErrWrongOp, c.Op, op)
	}
	if c.Container != cid {
		return fmt.Errorf("%w: cap is for %d, object in %d", ErrWrongContainer, c.Container, cid)
	}
	return nil
}

// verify reports whether *c is genuine: nil straight from the cache when it
// holds exactly this capability and it has not expired, otherwise whatever
// the authorization service's VerifyCaps answers (a success is cached).
func (cc *CapCache) verify(p *sim.Proc, c *Capability) error {
	if !cc.disabled {
		if cached, ok := cc.caps[c.ID]; ok && cached == *c {
			if cc.ep.Kernel().Now() <= c.Expires {
				cc.hits.Inc()
				return nil
			}
			// A cached capability does not outlive its expiry: drop it and
			// fall through to re-verification (which will also reject).
			delete(cc.caps, c.ID)
		}
	}
	cc.misses.Inc()
	if err := cc.az.VerifyCaps(p, []Capability{*c}, cc.port); err != nil {
		return err
	}
	// A retried VerifyCaps is answered from the service's dedup table, so
	// its "valid" can predate a revocation whose callback already found
	// nothing here to evict and let Revoke return.
	if cc.revoked[c.ID] {
		return ErrRevokedCap
	}
	if !cc.disabled {
		cc.caps[c.ID] = *c
	}
	return nil
}

// Crash takes the invalidation portal down and forgets every cached
// capability and every recorded revocation: after Restart each capability
// is verified again on first use.
func (cc *CapCache) Crash() {
	cc.rpc.SetDown(true)
	cc.caps = make(map[uint64]Capability)
	cc.revoked = make(map[uint64]bool)
}

// Restart brings the invalidation portal back; the cache restarts cold.
func (cc *CapCache) Restart() { cc.rpc.SetDown(false) }

// capCacheOps is the table of the one operation a CapCache serves.
var capCacheOps = portals.NewOps(portals.Handle(opInvalidate, (*CapCache).invalidate))

func (cc *CapCache) invalidate(p *sim.Proc, _ netsim.NodeID, inv *InvalidateCaps) (struct{}, error) {
	for _, id := range inv.CapIDs {
		cc.revoked[id] = true
		if _, ok := cc.caps[id]; ok {
			delete(cc.caps, id)
			cc.invalidated.Inc()
		}
	}
	return struct{}{}, nil
}
