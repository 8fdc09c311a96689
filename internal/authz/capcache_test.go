package authz_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"lwfs/internal/authn"
	"lwfs/internal/authz"
	"lwfs/internal/burst"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/testrig"
)

// capTier is one kind of data server in front of an authz.CapCache. Rig
// layout: node 0 admin, node 1 storage, node 2 burst buffer, nodes 3 and 4
// clients.
type capTier struct {
	name       string
	node       int    // the rig node the tier's server runs on
	counters   string // registry prefix of the tier's cap_cache scope
	canDisable bool
	// boot starts the tier in front of the storage server srv.
	boot func(r *testrig.Rig, srv *storage.Server) bootedTier
}

// bootedTier is a running tier as the tests drive it.
type bootedTier struct {
	az *authz.Client // the server's own, so a test can arm its retry
	// present sends the cheapest request that makes the server admit write
	// capability c for object ref.
	present func(p *sim.Proc, ref storage.ObjRef, c authz.Capability) error
	// drained waits until what present staged for ref is on storage; nil
	// for a tier that writes through.
	drained func(p *sim.Proc, ref storage.ObjRef) error
}

var capTiers = []capTier{
	{
		name: "storage", node: 1, counters: "storage.*.cap_cache", canDisable: true,
		boot: func(r *testrig.Rig, srv *storage.Server) bootedTier {
			sc := storage.NewClient(r.Caller(3))
			return bootedTier{az: srv.AuthzClient(),
				present: func(p *sim.Proc, ref storage.ObjRef, c authz.Capability) error {
					_, err := sc.Write(p, ref, c, 0, netsim.SyntheticPayload(16))
					return err
				}}
		},
	},
	{
		name: "burst", node: 2, counters: "burst.*.cap_cache",
		boot: func(r *testrig.Rig, _ *storage.Server) bootedTier {
			az := r.AuthzClient(2)
			bb := burst.Start(r.Eps[2], az, burst.DefaultConfig(), nil)
			bc := burst.NewClient(r.Caller(3))
			return bootedTier{az: az,
				present: func(p *sim.Proc, ref storage.ObjRef, c authz.Capability) error {
					_, err := bc.StageWrite(p, bb.Tgt(), ref, c, 0, netsim.SyntheticPayload(16))
					return err
				},
				drained: func(p *sim.Proc, ref storage.ObjRef) error {
					return bc.DrainWait(p, bb.Tgt(), []storage.ObjRef{ref}, time.Second)
				}}
		},
	},
}

// session is what a tier test acts on: alice's container, an object in it
// on storage, and capabilities to create, read and write there.
type session struct {
	cred                authn.Credential
	cid                 authz.ContainerID
	ref                 storage.ObjRef
	create, read, write authz.Capability
}

func openSession(t *testing.T, p *sim.Proc, r *testrig.Rig, az *authz.Client, srv *storage.Server) session {
	t.Helper()
	s := session{cred: login(t, p, r, 3, "alice")}
	var err error
	if s.cid, err = az.CreateContainer(p, s.cred); err != nil {
		t.Fatalf("container: %v", err)
	}
	caps, err := az.GetCaps(p, s.cred, s.cid, authz.OpCreate, authz.OpRead, authz.OpWrite)
	if err != nil {
		t.Fatalf("getcaps: %v", err)
	}
	s.create, s.read, s.write = caps[0], caps[1], caps[2]
	tgt := storage.Target{Node: srv.Node(), Port: srv.RPCPort()}
	if s.ref, err = storage.NewClient(r.Caller(3)).Create(p, tgt, s.create, s.cid); err != nil {
		t.Fatalf("create: %v", err)
	}
	return s
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
		refuse bool   // the presentation must be refused with authz.ErrCapRejected
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
					p.Sleep(authz.CapLifetime + time.Minute)
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
				bt := tier.boot(r, srv)
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
					s := openSession(t, p, r, az, srv)
					for _, st := range tc.steps {
						was := read()
						if st.before != nil {
							st.before(t, p, az, s.cid, s.cred)
						}
						err := bt.present(p, s.ref, s.write)
						if st.refuse && !errors.Is(err, authz.ErrCapRejected) {
							t.Fatalf("%s: presented capability answered %v, want %v", st.name, err, authz.ErrCapRejected)
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

// TestAdmissionRefusalsOnBothTiers: both tiers refuse what the one rule
// refuses, with the same error. A missing or wrong-operation capability
// costs no round trip. Storage binds a capability to the object's
// container at once; the burst buffer cannot, so the drain does.
func TestAdmissionRefusalsOnBothTiers(t *testing.T) {
	for _, tier := range capTiers {
		t.Run(tier.name, func(t *testing.T) {
			r := testrig.New(4)
			srv := r.StorageServer(1, storage.DefaultConfig())
			bt := tier.boot(r, srv)
			sc := storage.NewClient(r.Caller(3))
			r.Go("client", func(p *sim.Proc) {
				az := r.AuthzClient(3)
				s := openSession(t, p, r, az, srv)
				other, err := az.CreateContainer(p, s.cred)
				if err != nil {
					t.Fatalf("container: %v", err)
				}
				elsewhere, err := az.GetCaps(p, s.cred, other, authz.OpWrite)
				if err != nil {
					t.Fatalf("getcaps: %v", err)
				}
				// free checks a refusal that must cost no round trip.
				free := func(what string, want error, call func() error) {
					t.Helper()
					verifies, misses := r.Metric("authz.verifies"), r.Metric(tier.counters+".misses")
					if err := call(); !errors.Is(err, want) {
						t.Errorf("%s: %v, want %v", what, err, want)
					}
					if v, m := r.Metric("authz.verifies")-verifies, r.Metric(tier.counters+".misses")-misses; v != 0 || m != 0 {
						t.Errorf("%s: refusal cost %d verifies and %d cache misses, want none", what, v, m)
					}
				}
				free("zero capability", authz.ErrNoCap, func() error { return bt.present(p, s.ref, authz.Capability{}) })
				free("read capability", authz.ErrWrongOp, func() error { return bt.present(p, s.ref, s.read) })

				err = bt.present(p, s.ref, elsewhere[0])
				switch {
				case bt.drained == nil:
					if !errors.Is(err, authz.ErrWrongContainer) {
						t.Errorf("another container's write capability: %v, want %v", err, authz.ErrWrongContainer)
					}
				case err != nil:
					t.Errorf("another container's write capability was not staged: %v", err)
				default:
					if err := bt.drained(p, s.ref); !errors.Is(err, burst.ErrDrainFailed) {
						t.Errorf("drain under another container's write capability: %v, want %v", err, burst.ErrDrainFailed)
					}
				}
				if tier.name != "storage" {
					return
				}
				// Stat picks read or list from the capability itself; a write
				// capability is the wrong operation before any round trip.
				free("stat with a write capability", authz.ErrWrongOp, func() error {
					_, err := sc.Stat(p, s.ref, s.write)
					return err
				})
				// Sync has no container scope: any valid capability will do.
				for _, c := range []authz.Capability{s.read, elsewhere[0]} {
					if err := sc.Sync(p, storage.TargetOf(s.ref), c); err != nil {
						t.Errorf("sync with a %v capability for container %d: %v", c.Op, c.Container, err)
					}
				}
			})
			r.Run(t)
		})
	}
}

// verifyReplyDropper loses verify replies from the authorization service
// (node 0) to the data servers: arm(node) makes the reply to the next
// VerifyCaps that node sends disappear. Revocation callbacks to the node
// are never dropped.
type verifyReplyDropper struct {
	armed, owed map[netsim.NodeID]int
	dropped     int
}

func dropVerifyReplies(r *testrig.Rig) *verifyReplyDropper {
	d := &verifyReplyDropper{armed: map[netsim.NodeID]int{}, owed: map[netsim.NodeID]int{}}
	admin := r.Eps[0].Node()
	r.Net.SetFault(func(m netsim.Message) bool {
		what := portals.DescribeBody(m.Body)
		switch {
		case m.To == admin && d.armed[m.From] > 0 && what == "put[authz.verifyCapsReq]":
			d.armed[m.From]--
			d.owed[m.From]++
		case m.From == admin && d.owed[m.To] > 0 && strings.HasPrefix(what, "put[<nil>"):
			d.owed[m.To]--
			d.dropped++
			return true
		}
		return false
	})
	return d
}

func (d *verifyReplyDropper) arm(node netsim.NodeID) { d.armed[node]++ }

// TestLostVerifyReplyCannotReviveRevokedCap: a server's VerifyCaps reply is
// lost, and Revoke returns while the server waits to retry. The callback
// found nothing cached to evict. The retry is answered from the
// authorization service's dedup table, whose "valid" predates the
// revocation. The cache must refuse that stale acceptance, and a fresh
// presentation must not be admitted from the cache later.
func TestLostVerifyReplyCannotReviveRevokedCap(t *testing.T) {
	for _, tier := range capTiers {
		t.Run(tier.name, func(t *testing.T) {
			r := testrig.New(4)
			srv := r.StorageServer(1, storage.DefaultConfig())
			bt := tier.boot(r, srv)
			bt.az.Caller().SetRetry(portals.RetryPolicy{
				MaxAttempts: 3, Timeout: 5 * time.Millisecond, Backoff: 100 * time.Microsecond,
			}, sim.NewRand(1))
			drops := dropVerifyReplies(r)
			var first, fresh error
			r.Go("client", func(p *sim.Proc) {
				az := r.AuthzClient(3)
				s := openSession(t, p, r, az, srv)
				drops.arm(r.Eps[tier.node].Node())
				done := sim.NewMailbox(r.K, "first")
				r.Go("writer", func(q *sim.Proc) {
					first = bt.present(q, s.ref, s.write)
					done.Send(nil)
				})
				p.Sleep(time.Millisecond)
				if err := az.Revoke(p, s.cred, s.cid, authz.OpWrite); err != nil {
					t.Fatalf("revoke: %v", err)
				}
				done.Recv(p)
				p.Sleep(10 * time.Millisecond)
				fresh = bt.present(p, s.ref, s.write)
			})
			r.Run(t)
			if drops.dropped != 1 || r.Metric("rpc.authz.deduped") != 1 {
				t.Fatalf("dropped %d verify replies, %d answered from dedup: the scenario did not happen",
					drops.dropped, r.Metric("rpc.authz.deduped"))
			}
			for _, c := range []struct {
				what string
				err  error
			}{{"write admitted after Revoke returned", first}, {"fresh write", fresh}} {
				if !errors.Is(c.err, authz.ErrRevokedCap) || !errors.Is(c.err, authz.ErrCapRejected) {
					t.Errorf("%s: %v, want %v", c.what, c.err, authz.ErrRevokedCap)
				}
			}
			if hits := r.Metric(tier.counters + ".hits"); hits != 0 {
				t.Errorf("revoked capability served from the cache %d times", hits)
			}
		})
	}
}

// TestRevokeHoldsOnBothTiers checks the revocation invariant on generated
// schedules. Client 1 presents capabilities to either tier without waiting.
// Client 2 revokes them, then re-grants a fresh one. The schedule also
// sleeps and loses verify replies. When every presentation has answered,
// each capability ever minted is presented once more to both tiers. The
// invariant: a presentation issued after its capability's Revoke returned
// is refused, and a capability never revoked is admitted. LWFS_CHAOS_SEED
// shifts the 16 seeds to another 16.
func TestRevokeHoldsOnBothTiers(t *testing.T) {
	base := testrig.SeedFromEnv(0) * 16
	for seed := base + 1; seed <= base+16; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { revokeSchedule(t, seed) })
	}
}

func revokeSchedule(t *testing.T, seed int64) {
	const steps = 24
	r := testrig.New(5)
	srv := r.StorageServer(1, storage.DefaultConfig())
	var tiers []bootedTier
	for _, tier := range capTiers {
		bt := tier.boot(r, srv)
		// One more attempt than a schedule can drop: a verify never fails
		// for want of a reply.
		bt.az.Caller().SetRetry(portals.RetryPolicy{
			MaxAttempts: steps + 1, Timeout: 20 * time.Millisecond, Backoff: 100 * time.Microsecond,
		}, sim.NewRand(seed))
		tiers = append(tiers, bt)
	}
	drops := dropVerifyReplies(r)
	// NewRand streams of adjacent seeds are shifts of one another: mix the
	// seed so that each draws its own schedule.
	rng := sim.NewRand(int64(sim.NewRand(seed).Uint64()))
	type presentation struct {
		tier, step int
		cap        uint64
		at         sim.Time
		err        error
	}
	var shown []*presentation
	revokedAt := map[uint64]sim.Time{}
	var script []string
	r.Go("client2", func(p *sim.Proc) {
		az := authz.NewClient(r.Caller(4), r.Eps[0].Node())
		s := openSession(t, p, r, az, srv)
		minted := []authz.Capability{s.write}
		answered := sim.NewMailbox(r.K, "answered")
		present := func(step, tier int, c authz.Capability) {
			pr := &presentation{tier: tier, step: step, cap: c.ID, at: p.Now()}
			shown = append(shown, pr)
			r.Go("client1", func(q *sim.Proc) {
				pr.err = tiers[tier].present(q, s.ref, c)
				answered.Send(nil)
			})
		}
		for i := 0; i < steps; i++ {
			switch k := rng.Intn(10); {
			case k < 4:
				tier, c := rng.Intn(len(tiers)), minted[len(minted)-1]
				if rng.Intn(2) == 0 {
					c = minted[rng.Intn(len(minted))]
				}
				present(i, tier, c)
				script = append(script, fmt.Sprintf("present cap %d to %s", c.ID, capTiers[tier].name))
			case k < 6: // revoke every write capability, then re-grant one
				if err := az.Revoke(p, s.cred, s.cid, authz.OpWrite); err != nil {
					t.Fatalf("revoke: %v", err)
				}
				for _, c := range minted {
					if _, ok := revokedAt[c.ID]; !ok {
						revokedAt[c.ID] = p.Now()
					}
				}
				caps, err := az.GetCaps(p, s.cred, s.cid, authz.OpWrite)
				if err != nil {
					t.Fatalf("re-grant: %v", err)
				}
				minted = append(minted, caps[0])
				script = append(script, fmt.Sprintf("revoke, re-grant cap %d", caps[0].ID))
			case k < 8:
				d := time.Duration(1+rng.Intn(4)) * time.Millisecond
				p.Sleep(d)
				script = append(script, fmt.Sprintf("sleep %v", d))
			default:
				tier := rng.Intn(len(tiers))
				drops.arm(r.Eps[capTiers[tier].node].Node())
				script = append(script, "drop the next verify reply to "+capTiers[tier].name)
			}
		}
		for range shown {
			answered.Recv(p)
		}
		for tier := range tiers {
			for _, c := range minted {
				present(steps, tier, c)
				answered.Recv(p)
			}
		}
	})
	r.Run(t)
	for _, pr := range shown {
		at, revoked := revokedAt[pr.cap]
		switch {
		case revoked && pr.at >= at && !errors.Is(pr.err, authz.ErrCapRejected):
			t.Errorf("step %d: cap %d presented to %s at %v, after Revoke returned at %v: %v, want refused",
				pr.step, pr.cap, capTiers[pr.tier].name, pr.at, at, pr.err)
		case !revoked && pr.err != nil:
			t.Errorf("step %d: cap %d, never revoked, refused by %s: %v", pr.step, pr.cap, capTiers[pr.tier].name, pr.err)
		}
	}
	if t.Failed() {
		t.Logf("schedule:\n  %s", strings.Join(script, "\n  "))
	}
}
