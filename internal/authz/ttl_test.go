package authz_test

import (
	"errors"
	"testing"
	"time"

	"lwfs/internal/authn"
	"lwfs/internal/authz"
	"lwfs/internal/naming"
	"lwfs/internal/sim"
	"lwfs/internal/testrig"
)

// TestCredCacheTTLRechecksAuthn: after the credential-cache TTL passes, a
// service consults the authentication service again — which is how a
// *credential* revocation eventually reaches its decisions even though
// verified credentials are cached. Both services that cache credentials
// share the rule (authn.CredCache); naming reports the refusal as
// ErrBadCred.
func TestCredCacheTTLRechecksAuthn(t *testing.T) {
	services := []struct {
		name    string
		refusal error
		// boot starts what the service needs and returns a call from node 1
		// that makes it resolve cred.
		boot func(r *testrig.Rig) func(p *sim.Proc, cred authn.Credential) error
	}{
		{name: "authz", refusal: authn.ErrRevokedCred,
			boot: func(r *testrig.Rig) func(*sim.Proc, authn.Credential) error {
				az := r.AuthzClient(1)
				return func(p *sim.Proc, cred authn.Credential) error {
					_, err := az.CreateContainer(p, cred)
					return err
				}
			}},
		{name: "naming", refusal: naming.ErrBadCred,
			boot: func(r *testrig.Rig) func(*sim.Proc, authn.Credential) error {
				naming.Start(r.Eps[0], authn.NewClient(r.Caller(0), r.Eps[0].Node()), nil)
				nc := naming.NewClient(r.Caller(1), r.Eps[0].Node())
				return func(p *sim.Proc, cred authn.Credential) error {
					_, err := nc.Lookup(p, cred, "/")
					return err
				}
			}},
	}
	for _, svc := range services {
		t.Run(svc.name, func(t *testing.T) {
			r := testrig.New(2)
			call := svc.boot(r)
			r.Go("client", func(p *sim.Proc) {
				cred := login(t, p, r, 1, "alice")
				if err := call(p, cred); err != nil {
					t.Fatalf("first call: %v", err)
				}
				// Revoke the credential at the authentication service. Within
				// the TTL the service's cache still honors it...
				if err := r.AuthnClient(1).Revoke(p, cred); err != nil {
					t.Fatalf("revoke cred: %v", err)
				}
				if err := call(p, cred); err != nil {
					t.Fatalf("call within TTL: %v", err)
				}
				// ...but after the TTL the recheck rejects it.
				p.Sleep(authn.CredCacheTTL + time.Minute)
				if err := call(p, cred); !errors.Is(err, svc.refusal) {
					t.Fatalf("revoked credential after cache TTL: %v, want %v", err, svc.refusal)
				}
			})
			r.Run(t)
			if verifies := r.Metric("authn.verifies"); verifies != 2 {
				t.Fatalf("authn verifies = %d, want 2: one miss, one TTL recheck", verifies)
			}
		})
	}
}

// TestRevokeUnknownContainer exercises the error path.
func TestRevokeUnknownContainer(t *testing.T) {
	r := testrig.New(2)
	az := r.AuthzClient(1)
	r.Go("client", func(p *sim.Proc) {
		cred := login(t, p, r, 1, "alice")
		if err := az.Revoke(p, cred, 4242, authz.OpWrite); !errors.Is(err, authz.ErrNoContainer) {
			t.Errorf("revoke unknown container: %v", err)
		}
	})
	r.Run(t)
}

// TestRevokeIsIdempotent: revoking twice neither errors nor re-fans-out.
func TestRevokeIsIdempotent(t *testing.T) {
	r := testrig.New(2)
	az := r.AuthzClient(1)
	r.Go("client", func(p *sim.Proc) {
		cred := login(t, p, r, 1, "alice")
		cid, _ := az.CreateContainer(p, cred)
		if _, err := az.GetCaps(p, cred, cid, authz.OpWrite); err != nil {
			t.Fatalf("getcaps: %v", err)
		}
		if err := az.Revoke(p, cred, cid, authz.OpWrite); err != nil {
			t.Fatalf("revoke 1: %v", err)
		}
		if err := az.Revoke(p, cred, cid, authz.OpWrite); err != nil {
			t.Fatalf("revoke 2: %v", err)
		}
	})
	r.Run(t)
	revocations := r.Metric("authz.revocations")
	if revocations != 1 {
		t.Fatalf("revocations = %d, want 1 (second call found nothing)", revocations)
	}
}
