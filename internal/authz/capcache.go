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
// invalidate it. The server keeps only its policy — which operation, which
// container; whether a capability is genuine is decided here, the same way
// for every tier. The zero value is not usable; call Serve.
type CapCache struct {
	ep       *portals.Endpoint
	az       *Client
	port     portals.Index
	disabled bool
	caps     map[uint64]Capability
	rpc      *portals.Server

	hits, misses, invalidated *metrics.Counter
}

// Serve binds the cache's invalidation portal at (ep, port), registers
// hits, misses and invalidated under scope, and verifies through az.
// disabled is the ablation arm: every Verify takes the authorization round
// trip and nothing is remembered.
func (cc *CapCache) Serve(ep *portals.Endpoint, az *Client, port portals.Index, name string, scope metrics.Scope, disabled bool) {
	*cc = CapCache{
		ep: ep, az: az, port: port, disabled: disabled,
		caps:        make(map[uint64]Capability),
		hits:        scope.Counter("hits"),
		misses:      scope.Counter("misses"),
		invalidated: scope.Counter("invalidated"),
	}
	// The invalidation port is the authorization service's revocation
	// channel, not tenant traffic — admission control would let one tenant
	// delay another's revocations. //qos:exempt
	cc.rpc = portals.Serve(ep, port, name+"/capcache", 1, cc.invalidate)
}

// Verify reports whether *c is genuine: nil straight from the cache when it
// holds exactly this capability and it has not expired, otherwise whatever
// the authorization service's VerifyCaps answers (a success is cached). c is
// read, not kept; it is a pointer because the caller's frame and this one
// are both live on a parked service thread's stack for the whole round trip.
func (cc *CapCache) Verify(p *sim.Proc, c *Capability) error {
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
	if !cc.disabled {
		cc.caps[c.ID] = *c
	}
	return nil
}

// Crash takes the invalidation portal down and forgets every cached
// capability: after Restart each is verified again on first use.
func (cc *CapCache) Crash() {
	cc.rpc.SetDown(true)
	cc.caps = make(map[uint64]Capability)
}

// Restart brings the invalidation portal back; the cache restarts cold.
func (cc *CapCache) Restart() { cc.rpc.SetDown(false) }

func (cc *CapCache) invalidate(p *sim.Proc, from netsim.NodeID, req interface{}) (interface{}, error) {
	inv, ok := req.(InvalidateCaps)
	if !ok {
		return nil, fmt.Errorf("authz: bad invalidation %T", req)
	}
	for _, id := range inv.CapIDs {
		if _, ok := cc.caps[id]; ok {
			delete(cc.caps, id)
			cc.invalidated.Inc()
		}
	}
	return nil, nil
}
