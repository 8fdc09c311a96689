// Package authn implements the LWFS authentication service (paper §3.1.2,
// Figure 3): the component that interfaces with an external authentication
// mechanism (Kerberos in the paper; an in-simulation Realm here) and issues
// credentials — opaque, fully transferable proofs of user identity with a
// bounded lifetime.
//
// A credential's contents are opaque to its holder: the token is an HMAC
// that only the issuing authentication service can verify, so holding (or
// copying) a credential conveys exactly the right to act as the
// authenticated principal, and forging one requires guessing the HMAC.
// Credentials may be revoked at any time (application exit, compromise),
// which invalidates every verification thereafter.
package authn

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash"
	"time"

	"lwfs/internal/metrics"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
)

// Portal is the well-known portal index of the authentication service.
const Portal portals.Index = 10

// Wire sizes (bytes) for the authentication protocol.
const (
	credWireSize = 96
	reqWireSize  = 128
)

// Principal is a user identity known to the external mechanism.
type Principal string

// Credential is proof of authentication. It is a value type and fully
// transferable: an application may hand it to every process acting on the
// principal's behalf (paper: a distributed application sharing a single
// identity). Token is opaque; only the issuing service can verify it.
type Credential struct {
	Token   [32]byte
	Expires sim.Time
}

// Zero reports whether the credential is the zero value.
func (c Credential) Zero() bool { return c.Token == [32]byte{} }

// Realm is the external authentication mechanism (the Kerberos stand-in):
// a registry of principals and their secrets.
type Realm struct {
	secrets map[Principal]string
}

// NewRealm creates an empty realm.
func NewRealm() *Realm { return &Realm{secrets: make(map[Principal]string)} }

// Register adds a principal with its secret.
func (r *Realm) Register(user Principal, secret string) { r.secrets[user] = secret }

// check validates a login attempt.
func (r *Realm) check(user Principal, secret string) bool {
	want, ok := r.secrets[user]
	return ok && want == secret
}

// Errors reported by the service.
var (
	ErrBadLogin    = errors.New("authn: unknown principal or bad secret")
	ErrInvalidCred = errors.New("authn: invalid credential")
	ErrExpiredCred = errors.New("authn: credential expired")
	ErrRevokedCred = errors.New("authn: credential revoked")
)

// Calibration constants (DESIGN.md §7).
const (
	// opCost is the CPU time per request: an HMAC and a table lookup.
	opCost = 30 * time.Microsecond
	// credLifetime is how long an issued credential stays valid.
	credLifetime = 8 * time.Hour
	// CredCacheTTL is how long a service trusts a verified credential
	// before it asks the authentication service again.
	CredCacheTTL = 5 * time.Minute
)

type credRecord struct {
	user    Principal
	expires sim.Time
	revoked bool
}

// Service is the authentication server process.
type Service struct {
	k     *sim.Kernel
	realm *Realm
	mac   MAC
	creds map[[32]byte]*credRecord
	nonce uint64

	logins, verifies, revokes *metrics.Counter
}

// request bodies

type loginReq struct {
	User   Principal
	Secret string
}

type verifyReq struct{ Cred Credential }

type revokeReq struct{ Cred Credential }

// Start binds the authentication service to ep's node at the well-known
// portal and returns it.
func Start(ep *portals.Endpoint, realm *Realm) *Service {
	s := &Service{
		k:     ep.Kernel(),
		realm: realm,
		mac:   NewMAC([]byte("authn-service-instance-key")),
		creds: make(map[[32]byte]*credRecord),
	}
	an := ep.Metrics().Scope("authn")
	s.logins = an.Counter("logins")
	s.verifies = an.Counter("verifies")
	s.revokes = an.Counter("revokes")
	portals.ServeOps(ep, Portal, "authn", 2, serviceOps, s)
	return s
}

// The authentication service's operations, and its handler table.
var (
	opLogin    = portals.NewOp[loginReq, Credential]()
	opVerify   = portals.NewOp[verifyReq, struct{}]()
	opIdentity = portals.NewOp[identityReq, VerifyResult]()
	opRevoke   = portals.NewOp[revokeReq, struct{}]()

	serviceOps = portals.NewOps(
		portals.Handle(opLogin, (*Service).login),
		portals.Handle(opVerify, func(s *Service, p *sim.Proc, _ netsim.NodeID, r *verifyReq) (struct{}, error) {
			p.Sleep(opCost)
			s.verifies.Inc()
			return struct{}{}, s.check(r.Cred)
		}),
		portals.Handle(opIdentity, func(s *Service, p *sim.Proc, _ netsim.NodeID, r *identityReq) (VerifyResult, error) {
			p.Sleep(opCost)
			s.verifies.Inc()
			user, err := s.identity(r.Cred)
			return VerifyResult{User: user}, err
		}),
		portals.Handle(opRevoke, func(s *Service, p *sim.Proc, _ netsim.NodeID, r *revokeReq) (struct{}, error) {
			p.Sleep(opCost)
			s.revokes.Inc()
			rec, ok := s.creds[r.Cred.Token]
			if !ok {
				return struct{}{}, ErrInvalidCred
			}
			rec.revoked = true
			return struct{}{}, nil
		}),
	)
)

func (s *Service) login(p *sim.Proc, _ netsim.NodeID, r *loginReq) (Credential, error) {
	p.Sleep(opCost)
	if !s.realm.check(r.User, r.Secret) {
		return Credential{}, ErrBadLogin
	}
	s.logins.Inc()
	s.nonce++
	s.mac.Msg = binary.BigEndian.AppendUint64(append(s.mac.Msg[:0], r.User...), s.nonce)
	tok := s.mac.Sum()
	cred := Credential{Token: tok, Expires: p.Now().Add(credLifetime)}
	s.creds[tok] = &credRecord{user: r.User, expires: cred.Expires}
	return cred, nil
}

// MAC is a service's one keyed HMAC-SHA256, reset for each message in Msg
// (append to Msg[:0], then Sum): it allocates nothing once warm, and as
// signing never parks, one serves every process of the kernel.
type MAC struct {
	h   hash.Hash
	Msg []byte
	out [sha256.Size]byte
}

// NewMAC keys a MAC.
func NewMAC(key []byte) MAC { return MAC{h: hmac.New(sha256.New, key)} }

// Sum returns the HMAC of Msg.
func (m *MAC) Sum() [sha256.Size]byte {
	m.h.Reset()
	m.h.Write(m.Msg)
	m.h.Sum(m.out[:0])
	return m.out
}

// check validates a credential against the service's records. Only the
// issuing service can do this — the token is meaningless elsewhere.
func (s *Service) check(c Credential) error {
	rec, ok := s.creds[c.Token]
	if !ok {
		return ErrInvalidCred
	}
	if rec.revoked {
		return ErrRevokedCred
	}
	if s.k.Now() > rec.expires {
		return ErrExpiredCred
	}
	return nil
}

// Identity resolves a credential to its principal (service-side helper used
// by the authorization service after verification).
func (s *Service) identity(c Credential) (Principal, error) {
	if err := s.check(c); err != nil {
		return "", err
	}
	return s.creds[c.Token].user, nil
}

// VerifyResult carries the principal back to a verifying service.
type VerifyResult struct{ User Principal }

// identityReq asks for verification plus the principal (used by authz).
type identityReq struct{ Cred Credential }

// Client issues authentication RPCs from a node.
type Client struct {
	caller *portals.Caller
	server netsim.NodeID
}

// NewClient creates a client of the service at server, sending from caller.
func NewClient(caller *portals.Caller, server netsim.NodeID) *Client {
	return &Client{caller: caller, server: server}
}

// Login authenticates against the realm and returns a credential.
// This is the paper's GETCREDS().
func (c *Client) Login(p *sim.Proc, user Principal, secret string) (Credential, error) {
	return portals.Invoke(c.caller, p, c.server, Portal, opLogin, &loginReq{User: user, Secret: secret}, reqWireSize, credWireSize)
}

// Verify checks a credential with the issuing service.
func (c *Client) Verify(p *sim.Proc, cred Credential) error {
	_, err := portals.Invoke(c.caller, p, c.server, Portal, opVerify, &verifyReq{Cred: cred}, credWireSize, 16)
	return err
}

// Identity verifies a credential and returns its principal. Used by the
// authorization service (which trusts authn — Figure 5).
func (c *Client) Identity(p *sim.Proc, cred Credential) (Principal, error) {
	v, err := portals.Invoke(c.caller, p, c.server, Portal, opIdentity, &identityReq{Cred: cred}, credWireSize, 64)
	return v.User, err
}

// Revoke invalidates a credential immediately (application exit or
// compromise, paper §3.1.4).
func (c *Client) Revoke(p *sim.Proc, cred Credential) error {
	_, err := portals.Invoke(c.caller, p, c.server, Portal, opRevoke, &revokeReq{Cred: cred}, credWireSize, 16)
	return err
}

// CredCache is a service's cache of verified credentials (paper Figure 4a
// step 2): a principal is trusted for CredCacheTTL after the authentication
// service vouched for it, then checked again — which is how a credential
// revocation reaches the services that cached it.
type CredCache struct {
	c     *Client
	users map[[32]byte]cachedCred
}

type cachedCred struct {
	user Principal
	at   sim.Time
}

// NewCredCache returns an empty cache that verifies through c.
func NewCredCache(c *Client) *CredCache {
	return &CredCache{c: c, users: make(map[[32]byte]cachedCred)}
}

// Identity resolves cred to its principal: from the cache within
// CredCacheTTL of the last verification, else through Client.Identity,
// whose refusal also evicts the credential.
func (cc *CredCache) Identity(p *sim.Proc, cred Credential) (Principal, error) {
	if e, ok := cc.users[cred.Token]; ok && p.Now().Sub(e.at) < CredCacheTTL {
		return e.user, nil
	}
	user, err := cc.c.Identity(p, cred)
	if err != nil {
		delete(cc.users, cred.Token)
		return "", err
	}
	cc.users[cred.Token] = cachedCred{user: user, at: p.Now()}
	return user, nil
}
