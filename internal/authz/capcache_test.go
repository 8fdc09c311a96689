package authz_test

import (
	"errors"
	"testing"
	"time"

	"lwfs/internal/authn"
	"lwfs/internal/authz"
	"lwfs/internal/burst"
	"lwfs/internal/netsim"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/testrig"
)

// capTier is one kind of data server in front of an authz.CapCache. Rig
// layout: node 0 admin, node 1 storage, node 2 burst buffer, node 3 client.
type capTier struct {
	name       string
	counters   string // registry prefix of the tier's cap_cache scope
	rejected   error  // what the tier wraps a refused capability in
	canDisable bool
	// boot starts the tier and returns present, which sends the cheapest
	// request that makes the server check write capability c for object ref.
	boot func(r *testrig.Rig) (present func(p *sim.Proc, ref storage.ObjRef, c authz.Capability) error)
}

var capTiers = []capTier{
	{
		name: "storage", counters: "storage.*.cap_cache", rejected: storage.ErrCapRejected, canDisable: true,
		boot: func(r *testrig.Rig) func(*sim.Proc, storage.ObjRef, authz.Capability) error {
			sc := storage.NewClient(r.Caller(3))
			return func(p *sim.Proc, ref storage.ObjRef, c authz.Capability) error {
				_, err := sc.Write(p, ref, c, 0, netsim.SyntheticPayload(16))
				return err
			}
		},
	},
	{
		name: "burst", counters: "burst.*.cap_cache", rejected: burst.ErrCapRejected,
		boot: func(r *testrig.Rig) func(*sim.Proc, storage.ObjRef, authz.Capability) error {
			bb := burst.Start(r.Eps[2], r.AuthzClient(2), burst.DefaultPort, burst.DefaultConfig())
			bc := burst.NewClient(r.Caller(3))
			return func(p *sim.Proc, ref storage.ObjRef, c authz.Capability) error {
				_, err := bc.StageWrite(p, bb.Tgt(), ref, c, 0, netsim.SyntheticPayload(16))
				return err
			}
		},
	},
}

// counts is a tier's three cache counters.
type counts struct{ hits, misses, invalidated int64 }

// TestCapCacheOnBothTiers: the one verify-with-cache rule, driven through a
// storage server and through a burst buffer. Each step presents the write
// capability once and states what the tier's counters must have moved by;
// at the end the authorization service must have vouched (authz.verifies
// counts successes) exactly once per cache miss that was not a refusal — a
// hit costs no round trip.
func TestCapCacheOnBothTiers(t *testing.T) {
	type step struct {
		name string
		// before runs ahead of the presentation (sleep past expiry, revoke).
		before func(t *testing.T, p *sim.Proc, az *authz.Client, cid authz.ContainerID, cred authn.Credential)
		refuse bool   // the presentation must be refused with the tier's ErrCapRejected
		moved  counts // counter deltas across before + presentation
	}
	cases := []struct {
		name     string
		disabled bool
		steps    []step
	}{
		{name: "miss then hit", steps: []step{
			{name: "cold", moved: counts{misses: 1}},
			{name: "warm", moved: counts{hits: 1}},
		}},
		{name: "expiry evicts and re-verifies", steps: []step{
			{name: "cold", moved: counts{misses: 1}},
			{name: "expired", refuse: true, moved: counts{misses: 1},
				before: func(t *testing.T, p *sim.Proc, _ *authz.Client, _ authz.ContainerID, _ authn.Credential) {
					p.Sleep(authz.DefaultConfig().CapLifetime + time.Minute)
				}},
			// The expired entry is gone, not resurrected by the refusal.
			{name: "still refused", refuse: true, moved: counts{misses: 1}},
		}},
		{name: "revocation calls back, evicts and counts", steps: []step{
			{name: "cold", moved: counts{misses: 1}},
			{name: "revoked", refuse: true, moved: counts{misses: 1, invalidated: 1},
				before: func(t *testing.T, p *sim.Proc, az *authz.Client, cid authz.ContainerID, cred authn.Credential) {
					// When Revoke returns no server honors the capability:
					// the very next presentation is refused.
					if err := az.Revoke(p, cred, cid, authz.OpWrite); err != nil {
						t.Fatalf("revoke: %v", err)
					}
				}},
		}},
		{name: "cache disabled", disabled: true, steps: []step{
			{name: "first", moved: counts{misses: 1}},
			{name: "second", moved: counts{misses: 1}},
		}},
	}
	for _, tier := range capTiers {
		for _, tc := range cases {
			if tc.disabled && !tier.canDisable {
				continue
			}
			t.Run(tier.name+"/"+tc.name, func(t *testing.T) {
				r := testrig.New(4)
				cfg := storage.DefaultConfig()
				cfg.DisableCapCache = tc.disabled
				srv := r.StorageServer(1, cfg)
				present := tier.boot(r)
				read := func() counts {
					return counts{
						hits:        r.Metric(tier.counters + ".hits"),
						misses:      r.Metric(tier.counters + ".misses"),
						invalidated: r.Metric(tier.counters + ".invalidated"),
					}
				}
				var refused int64
				r.Go("client", func(p *sim.Proc) {
					az := r.AuthzClient(3)
					cred := login(t, p, r, 3, "alice")
					cid, err := az.CreateContainer(p, cred)
					if err != nil {
						t.Fatalf("container: %v", err)
					}
					caps, err := az.GetCaps(p, cred, cid, authz.OpCreate, authz.OpWrite)
					if err != nil {
						t.Fatalf("getcaps: %v", err)
					}
					ref, err := storage.NewClient(r.Caller(3)).Create(p,
						storage.Target{Node: srv.Node(), Port: srv.RPCPort()}, caps[0], cid)
					if err != nil {
						t.Fatalf("create: %v", err)
					}
					for _, st := range tc.steps {
						was := read()
						if st.before != nil {
							st.before(t, p, az, cid, cred)
						}
						err := present(p, ref, caps[1])
						if st.refuse && !errors.Is(err, tier.rejected) {
							t.Fatalf("%s: presented capability answered %v, want %v", st.name, err, tier.rejected)
						}
						if !st.refuse && err != nil {
							t.Fatalf("%s: %v", st.name, err)
						}
						if st.refuse {
							refused++
						}
						// A staged extent drains in the background, presenting the
						// capability to the storage server too: let that land.
						p.Sleep(50 * time.Millisecond)
						now := read()
						if got := (counts{now.hits - was.hits, now.misses - was.misses, now.invalidated - was.invalidated}); got != st.moved {
							t.Fatalf("%s: counters moved by %+v, want %+v", st.name, got, st.moved)
						}
					}
				})
				r.Run(t)
				if verifies, misses := r.Metric("authz.verifies"), r.Metric("*.cap_cache.misses"); verifies != misses-refused {
					t.Errorf("authorization service vouched %d times for %d cache misses, %d of them refusals", verifies, misses, refused)
				}
			})
		}
	}
}
