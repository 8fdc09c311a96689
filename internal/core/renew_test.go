package core_test

import (
	"errors"
	"testing"
	"time"

	"lwfs/internal/authz"
	"lwfs/internal/netsim"
	"lwfs/internal/sim"
)

// TestAutoRenewRecoversFromExpiredCaps: a checkpoint-like pattern with a
// long gap between accesses (the exact pain the paper pins on NASD in §5):
// capabilities expire mid-run, and the next write transparently re-acquires
// and succeeds.
func TestAutoRenewRecoversFromExpiredCaps(t *testing.T) {
	cl, l := smallCluster()
	c := cl.NewClient(l, 0)
	cl.K.Spawn("app", func(p *sim.Proc) {
		if err := c.Login(p, "app", "s3cret"); err != nil {
			t.Fatalf("login: %v", err)
		}
		cid, _ := c.CreateContainer(p)
		caps, _ := c.GetCaps(p, cid, authz.AllOps...)
		ref, err := c.CreateObject(p, c.Server(0), caps)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, err := c.Write(p, ref, caps, 0, netsim.SyntheticPayload(100)); err != nil {
			t.Fatalf("write 1: %v", err)
		}

		// The application computes for 5 hours; the 4-hour capability
		// lifetime passes (the credential's 8 hours does not).
		p.Sleep(5 * time.Hour)

		// Transparent retry.
		if _, err := c.Write(p, ref, caps, 100, netsim.SyntheticPayload(100)); err != nil {
			t.Fatalf("auto-renewed write: %v", err)
		}
		// Reads too.
		if _, err := c.Read(p, ref, caps, 0, 100); err != nil {
			t.Fatalf("auto-renewed read: %v", err)
		}
	})
	run(t, cl)
}

// TestRenewCapsKeepsSameOps: the refreshed set covers exactly the ops the
// stale set covered.
func TestRenewCapsKeepsSameOps(t *testing.T) {
	cl, l := smallCluster()
	c := cl.NewClient(l, 0)
	cl.K.Spawn("app", func(p *sim.Proc) {
		c.Login(p, "app", "s3cret")
		cid, _ := c.CreateContainer(p)
		caps, _ := c.GetCaps(p, cid, authz.OpWrite, authz.OpRead)
		fresh, err := c.RenewCaps(p, caps)
		if err != nil {
			t.Fatalf("renew: %v", err)
		}
		if len(fresh.Caps) != 2 || fresh.Container != cid {
			t.Fatalf("fresh = %+v", fresh)
		}
		for _, op := range []authz.Op{authz.OpWrite, authz.OpRead} {
			nc := fresh.Get(op)
			oc := caps.Get(op)
			if nc.ID == oc.ID || nc.Op != op {
				t.Fatalf("op %v: old ID %d new %+v", op, oc.ID, nc)
			}
		}
	})
	run(t, cl)
}

// TestAutoRenewDoesNotMaskRealDenials: revoked (not expired) capabilities
// must still fail — renewal only bridges expiry.
func TestAutoRenewDoesNotMaskRealDenials(t *testing.T) {
	cl, l := smallCluster()
	c := cl.NewClient(l, 0)
	cl.K.Spawn("app", func(p *sim.Proc) {
		c.Login(p, "app", "s3cret")
		cid, _ := c.CreateContainer(p)
		caps, _ := c.GetCaps(p, cid, authz.AllOps...)
		ref, _ := c.CreateObject(p, c.Server(0), caps)
		if err := c.Revoke(p, cid, authz.OpWrite); err != nil {
			t.Fatalf("revoke: %v", err)
		}
		// The owner could re-acquire; but the op must not silently retry
		// into success with the *revoked* capability — it surfaces the
		// rejection (owner policy still allows a fresh GetCaps, which is a
		// deliberate application decision, not a transparent one).
		_, err := c.Write(p, ref, caps, 0, netsim.SyntheticPayload(10))
		if !errors.Is(err, authz.ErrCapRejected) {
			t.Fatalf("revoked write: %v", err)
		}
	})
	run(t, cl)
}
