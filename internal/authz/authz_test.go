package authz_test

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"lwfs/internal/authn"
	"lwfs/internal/authz"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/testrig"
)

// login is a test helper running inside a simulated process.
func login(t *testing.T, p *sim.Proc, r *testrig.Rig, node int, user authn.Principal) authn.Credential {
	cred, err := r.AuthnClient(node).Login(p, user, testrig.Secret(user))
	if err != nil {
		t.Fatalf("login %s: %v", user, err)
	}
	return cred
}

func TestCreateContainerAndGetCaps(t *testing.T) {
	r := testrig.New(2)
	az := r.AuthzClient(1)
	r.Go("client", func(p *sim.Proc) {
		cred := login(t, p, r, 1, "alice")
		cid, err := az.CreateContainer(p, cred)
		if err != nil {
			t.Fatalf("create container: %v", err)
		}
		caps, err := az.GetCaps(p, cred, cid, authz.OpCreate, authz.OpWrite, authz.OpRead)
		if err != nil {
			t.Fatalf("getcaps: %v", err)
		}
		if len(caps) != 3 {
			t.Fatalf("got %d caps", len(caps))
		}
		for i, op := range []authz.Op{authz.OpCreate, authz.OpWrite, authz.OpRead} {
			if caps[i].Op != op || caps[i].Container != cid {
				t.Fatalf("cap %d = %+v", i, caps[i])
			}
		}
	})
	r.Run(t)
}

func TestNonOwnerDenied(t *testing.T) {
	r := testrig.New(3)
	az1 := r.AuthzClient(1)
	az2 := r.AuthzClient(2)
	cidCh := sim.NewMailbox(r.K, "cid")
	r.Go("owner", func(p *sim.Proc) {
		cred := login(t, p, r, 1, "alice")
		cid, err := az1.CreateContainer(p, cred)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		cidCh.Send(cid)
	})
	r.Go("intruder", func(p *sim.Proc) {
		cid := cidCh.Recv(p).(authz.ContainerID)
		cred := login(t, p, r, 2, "bob")
		if _, err := az2.GetCaps(p, cred, cid, authz.OpWrite); !errors.Is(err, authz.ErrDenied) {
			t.Errorf("bob got caps on alice's container: %v", err)
		}
	})
	r.Run(t)
}

func TestACLGrantAllowsOtherUser(t *testing.T) {
	r := testrig.New(3)
	az1 := r.AuthzClient(1)
	az2 := r.AuthzClient(2)
	cidCh := sim.NewMailbox(r.K, "cid")
	r.Go("owner", func(p *sim.Proc) {
		cred := login(t, p, r, 1, "alice")
		cid, err := az1.CreateContainer(p, cred)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if err := az1.SetACL(p, cred, cid, authz.OpRead, "bob", true); err != nil {
			t.Fatalf("setacl: %v", err)
		}
		cidCh.Send(cid)
	})
	r.Go("bob", func(p *sim.Proc) {
		cid := cidCh.Recv(p).(authz.ContainerID)
		cred := login(t, p, r, 2, "bob")
		caps, err := az2.GetCaps(p, cred, cid, authz.OpRead)
		if err != nil || len(caps) != 1 {
			t.Errorf("bob read caps: %v %v", caps, err)
		}
		// Write is still denied.
		if _, err := az2.GetCaps(p, cred, cid, authz.OpWrite); !errors.Is(err, authz.ErrDenied) {
			t.Errorf("bob write caps: %v", err)
		}
	})
	r.Run(t)
}

func TestVerifyAcceptsMintedRejectsForged(t *testing.T) {
	r := testrig.New(2)
	az := r.AuthzClient(1)
	r.Go("client", func(p *sim.Proc) {
		cred := login(t, p, r, 1, "alice")
		cid, _ := az.CreateContainer(p, cred)
		caps, err := az.GetCaps(p, cred, cid, authz.OpWrite)
		if err != nil {
			t.Fatalf("getcaps: %v", err)
		}
		if err := az.VerifyCaps(p, caps, 50); err != nil {
			t.Errorf("verify minted: %v", err)
		}
		forged := caps[0]
		forged.Op = authz.OpRemove // tamper: escalate write to remove
		if err := az.VerifyCaps(p, []authz.Capability{forged}, 50); !errors.Is(err, authz.ErrBadCap) {
			t.Errorf("tampered cap verified: %v", err)
		}
	})
	r.Run(t)
}

func TestCapabilityTransferable(t *testing.T) {
	// Paper §3.1.2: capabilities are fully transferable — another process,
	// even another principal's, may present them.
	r := testrig.New(3)
	az1 := r.AuthzClient(1)
	az2 := r.AuthzClient(2)
	capCh := sim.NewMailbox(r.K, "caps")
	r.Go("alice", func(p *sim.Proc) {
		cred := login(t, p, r, 1, "alice")
		cid, _ := az1.CreateContainer(p, cred)
		caps, err := az1.GetCaps(p, cred, cid, authz.OpRead)
		if err != nil {
			t.Fatalf("getcaps: %v", err)
		}
		capCh.Send(caps)
	})
	r.Go("bob", func(p *sim.Proc) {
		caps := capCh.Recv(p).([]authz.Capability)
		if err := az2.VerifyCaps(p, caps, 50); err != nil {
			t.Errorf("transferred capability rejected: %v", err)
		}
	})
	r.Run(t)
}

func TestExpiredCapRejected(t *testing.T) {
	r := testrig.New(2)
	az := r.AuthzClient(1)
	r.Go("client", func(p *sim.Proc) {
		cred := login(t, p, r, 1, "alice")
		cid, _ := az.CreateContainer(p, cred)
		caps, err := az.GetCaps(p, cred, cid, authz.OpRead)
		if err != nil {
			t.Fatalf("getcaps: %v", err)
		}
		p.Sleep(5 * time.Hour) // default cap lifetime 4h, credential 8h
		if err := az.VerifyCaps(p, caps, 50); !errors.Is(err, authz.ErrExpiredCap) {
			t.Errorf("expired cap: %v", err)
		}
	})
	r.Run(t)
}

// cacheServer is a minimal stand-in for a storage server's capability
// cache: it serves InvalidateCaps on a portal and records what was
// invalidated.
type cacheServer struct {
	invalidated []uint64
}

var cacheOps = portals.NewOps(portals.Handle(authz.OpInvalidate,
	func(cs *cacheServer, _ *sim.Proc, _ netsim.NodeID, req *authz.InvalidateCaps) (struct{}, error) {
		cs.invalidated = append(cs.invalidated, req.CapIDs...)
		return struct{}{}, nil
	}))

func serveCache(ep *portals.Endpoint, port portals.Index) *cacheServer {
	cs := &cacheServer{}
	portals.ServeOps(ep, port, "capcache", 1, cacheOps, cs)
	return cs
}

func TestRevocationInvalidatesCaches(t *testing.T) {
	r := testrig.New(3)
	az := r.AuthzClient(1)
	const cachePort portals.Index = 77
	cs := serveCache(r.Eps[2], cachePort)
	az2 := r.AuthzClient(2) // the "storage server" verifying caps
	capCh := sim.NewMailbox(r.K, "caps")
	r.Go("storage", func(p *sim.Proc) {
		caps := capCh.Recv(p).([]authz.Capability)
		if err := az2.VerifyCaps(p, caps, cachePort); err != nil {
			t.Errorf("verify: %v", err)
		}
		capCh.Send("verified")
	})
	r.Go("owner", func(p *sim.Proc) {
		cred := login(t, p, r, 1, "alice")
		cid, _ := az.CreateContainer(p, cred)
		caps, err := az.GetCaps(p, cred, cid, authz.OpWrite, authz.OpRead)
		if err != nil {
			t.Fatalf("getcaps: %v", err)
		}
		capCh.Send(caps)
		if s := capCh.Recv(p).(string); s != "verified" {
			t.Fatalf("handshake: %v", s)
		}
		// Revoke write only.
		if err := az.Revoke(p, cred, cid, authz.OpWrite); err != nil {
			t.Fatalf("revoke: %v", err)
		}
		// Back pointer fired: exactly the write cap was invalidated on the
		// caching server.
		var writeID uint64
		for _, c := range caps {
			if c.Op == authz.OpWrite {
				writeID = c.ID
			}
		}
		if len(cs.invalidated) != 1 || cs.invalidated[0] != writeID {
			t.Errorf("invalidated = %v, want [%d]", cs.invalidated, writeID)
		}
		// Partial revocation: write cap now fails verification, read cap
		// still verifies.
		for _, c := range caps {
			err := az.VerifyCaps(p, []authz.Capability{c}, cachePort)
			if c.Op == authz.OpWrite && !errors.Is(err, authz.ErrRevokedCap) {
				t.Errorf("revoked write cap: %v", err)
			}
			if c.Op == authz.OpRead && err != nil {
				t.Errorf("read cap after partial revoke: %v", err)
			}
		}
	})
	r.Run(t)
}

func TestSetACLRemovalRevokesOutstandingCaps(t *testing.T) {
	r := testrig.New(3)
	az1 := r.AuthzClient(1)
	az2 := r.AuthzClient(2)
	cidCh := sim.NewMailbox(r.K, "cid")
	doneCh := sim.NewMailbox(r.K, "done")
	var bobCaps []authz.Capability
	r.Go("bob", func(p *sim.Proc) {
		cid := cidCh.Recv(p).(authz.ContainerID)
		cred := login(t, p, r, 2, "bob")
		var err error
		bobCaps, err = az2.GetCaps(p, cred, cid, authz.OpWrite)
		if err != nil {
			t.Errorf("bob getcaps: %v", err)
		}
		doneCh.Send("ok")
	})
	r.Go("alice", func(p *sim.Proc) {
		cred := login(t, p, r, 1, "alice")
		cid, _ := az1.CreateContainer(p, cred)
		if err := az1.SetACL(p, cred, cid, authz.OpWrite, "bob", true); err != nil {
			t.Fatalf("grant: %v", err)
		}
		cidCh.Send(cid)
		doneCh.Recv(p)
		// chmod: remove bob's write access — his outstanding caps die.
		if err := az1.SetACL(p, cred, cid, authz.OpWrite, "bob", false); err != nil {
			t.Fatalf("remove acl: %v", err)
		}
		if err := az1.VerifyCaps(p, bobCaps, 50); !errors.Is(err, authz.ErrRevokedCap) {
			t.Errorf("bob's cap after chmod: %v", err)
		}
	})
	r.Run(t)
}

func TestRevokeRequiresOwner(t *testing.T) {
	r := testrig.New(3)
	az1 := r.AuthzClient(1)
	az2 := r.AuthzClient(2)
	cidCh := sim.NewMailbox(r.K, "cid")
	r.Go("alice", func(p *sim.Proc) {
		cred := login(t, p, r, 1, "alice")
		cid, _ := az1.CreateContainer(p, cred)
		cidCh.Send(cid)
	})
	r.Go("bob", func(p *sim.Proc) {
		cid := cidCh.Recv(p).(authz.ContainerID)
		cred := login(t, p, r, 2, "bob")
		if err := az2.Revoke(p, cred, cid, authz.OpWrite); !errors.Is(err, authz.ErrNotOwner) {
			t.Errorf("non-owner revoke: %v", err)
		}
	})
	r.Run(t)
}

func TestGetCapsUnknownContainer(t *testing.T) {
	r := testrig.New(2)
	az := r.AuthzClient(1)
	r.Go("client", func(p *sim.Proc) {
		cred := login(t, p, r, 1, "alice")
		if _, err := az.GetCaps(p, cred, 9999, authz.OpRead); !errors.Is(err, authz.ErrNoContainer) {
			t.Errorf("unknown container: %v", err)
		}
	})
	r.Run(t)
}

func TestCredCachingReducesAuthnTraffic(t *testing.T) {
	r := testrig.New(2)
	az := r.AuthzClient(1)
	r.Go("client", func(p *sim.Proc) {
		cred := login(t, p, r, 1, "alice")
		cid, _ := az.CreateContainer(p, cred)
		for i := 0; i < 10; i++ {
			if _, err := az.GetCaps(p, cred, cid, authz.OpRead); err != nil {
				t.Fatalf("getcaps: %v", err)
			}
		}
	})
	r.Run(t)
	verifies := r.Metric("authn.verifies")
	// 1 identity check for the first authz request; the rest hit the cache.
	if verifies != 1 {
		t.Fatalf("authn verifies = %d, want 1", verifies)
	}
}

func TestOpString(t *testing.T) {
	for _, op := range authz.AllOps {
		if s := op.String(); s == "" || s[0] == 'O' {
			t.Fatalf("Op(%d).String() = %q", op, s)
		}
	}
}

// Property: random bit-flips in any capability field always fail
// verification — unforgeability under tampering.
func TestCapTamperProperty(t *testing.T) {
	r := testrig.New(2)
	az := r.AuthzClient(1)
	var genuine []authz.Capability
	r.Go("client", func(p *sim.Proc) {
		cred := login(t, p, r, 1, "alice")
		cid, _ := az.CreateContainer(p, cred)
		caps, err := az.GetCaps(p, cred, cid, authz.OpWrite)
		if err != nil {
			t.Fatalf("getcaps: %v", err)
		}
		genuine = caps
	})
	r.Run(t)

	prop := func(field uint8, delta uint64, sigByte uint8, sigDelta byte) bool {
		c := genuine[0]
		switch field % 4 {
		case 0:
			c.Container += authz.ContainerID(delta%100 + 1)
		case 1:
			c.ID += delta%100 + 1
		case 2:
			c.Expires += sim.Time(delta%1e9 + 1)
		case 3:
			if sigDelta == 0 {
				sigDelta = 1
			}
			c.Sig[int(sigByte)%len(c.Sig)] ^= sigDelta
		}
		rejected := false
		r.Go("checker", func(p *sim.Proc) {
			err := az.VerifyCaps(p, []authz.Capability{c}, 50)
			rejected = errors.Is(err, authz.ErrBadCap)
		})
		if err := r.K.Run(sim.MaxTime); err != nil {
			return false
		}
		return rejected
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
