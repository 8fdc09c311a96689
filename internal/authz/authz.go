// Package authz implements the LWFS authorization service (paper §3.1):
// coarse-grained, capability-based access control over containers of
// objects, with storage-server-side capability caching and near-immediate
// revocation.
//
// Design points taken from the paper:
//
//   - Access control is per *container*, not per object or byte range
//     (§3.1.1). Every object belongs to exactly one container and all
//     objects in a container share one policy.
//   - A capability entitles its holder to one operation on one container
//     (§3.1.2). Capabilities are opaque, fully transferable, and carry an
//     HMAC that only the issuing authorization service can verify — unlike
//     NASD/T10, there is no shared secret with the storage servers, so the
//     authorization service never has to trust storage not to mint new
//     capabilities.
//   - Storage servers cache positive verification results. The
//     authorization service records *back pointers* (which server caches
//     which capability, §3.1.4) so revocation can invalidate exactly the
//     affected cache entries — including *partial* revocation (revoke the
//     write capability for a container while its read capability keeps
//     working).
package authz

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"time"

	"lwfs/internal/authn"
	"lwfs/internal/metrics"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
)

// Portal is the well-known portal index of the authorization service.
const Portal portals.Index = 11

// ContainerID names a container: the unit of access control.
type ContainerID uint64

// Op is a container operation a capability can authorize.
type Op uint8

// The operations of the LWFS-core storage API.
const (
	OpCreate Op = iota + 1 // create objects in the container
	OpRead                 // read objects
	OpWrite                // write objects
	OpRemove               // remove objects
	OpList                 // enumerate objects
	opMax
)

// AllOps lists every operation, in declaration order.
var AllOps = []Op{OpCreate, OpRead, OpWrite, OpRemove, OpList}

func (o Op) String() string {
	switch o {
	case OpCreate:
		return "create"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpRemove:
		return "remove"
	case OpList:
		return "list"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Capability is proof of authorization for one operation on one container
// (paper §3.1.2). It is a transferable value; Sig can only be validated by
// the issuing service, so a capability a storage server has never seen must
// be verified with the authorization service before being honored.
type Capability struct {
	Container ContainerID
	Op        Op
	ID        uint64 // capability identity, used for revocation bookkeeping
	Expires   sim.Time
	Sig       [32]byte
}

// CapWireSize is the on-the-wire size of one capability, in bytes.
const CapWireSize = 96

// Errors reported by the service.
var (
	ErrDenied      = errors.New("authz: operation not permitted by container policy")
	ErrBadCap      = errors.New("authz: invalid capability signature")
	ErrRevokedCap  = errors.New("authz: capability revoked")
	ErrExpiredCap  = errors.New("authz: capability expired")
	ErrNoContainer = errors.New("authz: no such container")
	ErrNotOwner    = errors.New("authz: only the container owner may change policy")

	// A data server refusing a capability (CapCache.Admit) answers one of
	// these, whichever tier it is.
	ErrNoCap          = errors.New("authz: request carried no capability")
	ErrWrongOp        = errors.New("authz: capability does not authorize this operation")
	ErrWrongContainer = errors.New("authz: capability is for a different container")
	ErrCapRejected    = errors.New("authz: capability rejected by authorization service")
)

// Calibration constants (DESIGN.md §7).
const (
	// opCost is the CPU time per request.
	opCost = 40 * time.Microsecond
	// CapLifetime is how long a minted capability stays valid.
	CapLifetime = 4 * time.Hour
)

type containerPolicy struct {
	owner Principal
	acl   map[Op]map[Principal]bool
}

// Principal aliases the authentication principal type.
type Principal = authn.Principal

type capRecord struct {
	cap     Capability
	revoked bool
	// cachedAt: storage servers holding this capability in their verify
	// cache — the back pointers of §3.1.4.
	cachedAt map[netsim.NodeID]portals.Index
}

// Service is the authorization server.
type Service struct {
	k      *sim.Kernel
	creds  *authn.CredCache
	caller *portals.Caller
	mac    authn.MAC

	containers map[ContainerID]*containerPolicy
	nextCID    ContainerID
	nextCapID  uint64
	issued     map[uint64]*capRecord

	verifies, cacheRegistrations, revocations, invalidationsSent *metrics.Counter
}

// request bodies

type createContainerReq struct{ Cred authn.Credential }

type getCapsReq struct {
	Cred      authn.Credential
	Container ContainerID
	Ops       []Op
}

type verifyCapsReq struct {
	Caps      []Capability
	CachePort portals.Index // where invalidation callbacks should go
}

type revokeReq struct {
	Cred      authn.Credential
	Container ContainerID
	Ops       []Op
}

type setACLReq struct {
	Cred      authn.Credential
	Container ContainerID
	Op        Op
	User      Principal
	Allow     bool
}

// InvalidateCaps is the callback request the authorization service sends to
// the servers caching revoked capabilities (CapCache serves it).
type InvalidateCaps struct{ CapIDs []uint64 }

// Start binds the authorization service to ep's node. It verifies unknown
// credentials with the authentication client ac (the trust arrow of
// Figure 5: authorization trusts authentication).
func Start(ep *portals.Endpoint, ac *authn.Client) *Service {
	s := &Service{
		k:          ep.Kernel(),
		creds:      authn.NewCredCache(ac),
		caller:     portals.NewCaller(ep),
		mac:        authn.NewMAC([]byte("authz-service-instance-key")),
		containers: make(map[ContainerID]*containerPolicy),
		issued:     make(map[uint64]*capRecord),
	}
	az := ep.Metrics().Scope("authz")
	s.verifies = az.Counter("verifies")
	s.cacheRegistrations = az.Counter("cache_regs")
	s.revocations = az.Counter("revocations")
	s.invalidationsSent = az.Counter("invalidations")
	portals.ServeOps(ep, Portal, "authz", 2, serviceOps, s)
	return s
}

// The authorization service's operations, its handler table, and the
// revocation callback a CapCache serves.
var (
	opCreateContainer = portals.NewOp[createContainerReq, ContainerID]()
	opGetCaps         = portals.NewOp[getCapsReq, []Capability]()
	opVerifyCaps      = portals.NewOp[verifyCapsReq, struct{}]()
	opRevoke          = portals.NewOp[revokeReq, struct{}]()
	opSetACL          = portals.NewOp[setACLReq, struct{}]()
	opInvalidate      = portals.NewOp[InvalidateCaps, struct{}]()

	serviceOps = portals.NewOps(
		portals.Handle(opCreateContainer, (*Service).createContainer),
		portals.Handle(opGetCaps, (*Service).getCaps),
		portals.Handle(opVerifyCaps, func(s *Service, p *sim.Proc, from netsim.NodeID, r *verifyCapsReq) (struct{}, error) {
			p.Sleep(opCost)
			return struct{}{}, s.verifyCaps(from, r)
		}),
		portals.Handle(opRevoke, func(s *Service, p *sim.Proc, _ netsim.NodeID, r *revokeReq) (struct{}, error) {
			p.Sleep(opCost)
			return struct{}{}, s.revoke(p, r)
		}),
		portals.Handle(opSetACL, func(s *Service, p *sim.Proc, _ netsim.NodeID, r *setACLReq) (struct{}, error) {
			p.Sleep(opCost)
			return struct{}{}, s.setACL(p, r)
		}),
	)
)

func (s *Service) createContainer(p *sim.Proc, _ netsim.NodeID, r *createContainerReq) (ContainerID, error) {
	p.Sleep(opCost)
	user, err := s.creds.Identity(p, r.Cred)
	if err != nil {
		return 0, err
	}
	s.nextCID++
	s.containers[s.nextCID] = &containerPolicy{
		owner: user,
		acl:   make(map[Op]map[Principal]bool),
	}
	return s.nextCID, nil
}

func (s *Service) allowed(pol *containerPolicy, user Principal, op Op) bool {
	if pol.owner == user {
		return true
	}
	return pol.acl[op][user]
}

func (s *Service) getCaps(p *sim.Proc, _ netsim.NodeID, r *getCapsReq) ([]Capability, error) {
	p.Sleep(opCost)
	user, err := s.creds.Identity(p, r.Cred)
	if err != nil {
		return nil, err
	}
	pol, ok := s.containers[r.Container]
	if !ok {
		return nil, ErrNoContainer
	}
	caps := make([]Capability, 0, len(r.Ops))
	var denied []string
	for _, op := range r.Ops {
		if op == 0 || op >= opMax {
			return nil, fmt.Errorf("authz: bad op %d", op)
		}
		if !s.allowed(pol, user, op) {
			denied = append(denied, op.String())
			continue
		}
		caps = append(caps, s.mint(r.Container, op))
	}
	if len(denied) > 0 {
		return nil, fmt.Errorf("%w: %s on container %d for %q",
			ErrDenied, strings.Join(denied, ","), r.Container, user)
	}
	return caps, nil
}

// mint issues and records a new capability.
func (s *Service) mint(cid ContainerID, op Op) Capability {
	s.nextCapID++
	cap := Capability{
		Container: cid,
		Op:        op,
		ID:        s.nextCapID,
		Expires:   s.k.Now().Add(CapLifetime),
	}
	cap.Sig = s.sign(cap)
	s.issued[cap.ID] = &capRecord{cap: cap, cachedAt: make(map[netsim.NodeID]portals.Index)}
	return cap
}

// sign computes the HMAC that makes a capability unforgeable. The key never
// leaves the authorization service.
func (s *Service) sign(c Capability) [32]byte {
	m := &s.mac
	m.Msg = binary.BigEndian.AppendUint64(m.Msg[:0], uint64(c.Container))
	m.Msg = append(m.Msg, byte(c.Op))
	m.Msg = binary.BigEndian.AppendUint64(m.Msg, c.ID)
	m.Msg = binary.BigEndian.AppendUint64(m.Msg, uint64(c.Expires))
	return m.Sum()
}

// checkCap validates one capability without side effects.
func (s *Service) checkCap(c Capability) error {
	if s.sign(c) != c.Sig {
		return ErrBadCap
	}
	rec, ok := s.issued[c.ID]
	if !ok || rec.cap != c {
		return ErrBadCap
	}
	if rec.revoked {
		return ErrRevokedCap
	}
	if s.k.Now() > c.Expires {
		return ErrExpiredCap
	}
	return nil
}

// verifyCaps validates capabilities on behalf of a storage server and
// records the back pointer so future revocation can invalidate the server's
// cache entry (Figure 4b step 2).
func (s *Service) verifyCaps(from netsim.NodeID, r *verifyCapsReq) error {
	for _, c := range r.Caps {
		if err := s.checkCap(c); err != nil {
			return err
		}
	}
	for _, c := range r.Caps {
		s.issued[c.ID].cachedAt[from] = r.CachePort
		s.cacheRegistrations.Inc()
	}
	s.verifies.Inc()
	return nil
}

// revoke invalidates every issued capability for the given ops on the
// container, then synchronously invalidates storage-server caches through
// the recorded back pointers — the combination of secure keys and back
// pointers described in §3.1.4. Other ops' capabilities are untouched
// (partial revocation).
func (s *Service) revoke(p *sim.Proc, r *revokeReq) error {
	user, err := s.creds.Identity(p, r.Cred)
	if err != nil {
		return err
	}
	pol, ok := s.containers[r.Container]
	if !ok {
		return ErrNoContainer
	}
	if pol.owner != user {
		return ErrNotOwner
	}
	opSet := make(map[Op]bool, len(r.Ops))
	for _, op := range r.Ops {
		opSet[op] = true
	}
	// Collect victims and the caches holding them.
	perServer := make(map[netsim.NodeID]map[portals.Index][]uint64)
	for id, rec := range s.issued {
		if rec.cap.Container != r.Container || rec.revoked || !opSet[rec.cap.Op] {
			continue
		}
		rec.revoked = true
		s.revocations.Inc()
		for node, port := range rec.cachedAt {
			if perServer[node] == nil {
				perServer[node] = make(map[portals.Index][]uint64)
			}
			perServer[node][port] = append(perServer[node][port], id)
		}
	}
	// Fan the invalidations out and wait for every acknowledgment, so that
	// when Revoke returns, no storage server will honor a revoked
	// capability ("immediate" revocation).
	for node, ports := range perServer {
		for port, ids := range ports {
			s.invalidationsSent.Inc()
			if _, err := portals.Invoke(s.caller, p, node, port, opInvalidate, &InvalidateCaps{CapIDs: ids},
				64+int64(len(ids))*8, 16); err != nil {
				return fmt.Errorf("authz: invalidating cache on node %d: %w", node, err)
			}
		}
	}
	return nil
}

// setACL updates a container's policy. Removing access also revokes
// outstanding capabilities for that op (the "chmod" scenario of §3.1.4).
func (s *Service) setACL(p *sim.Proc, r *setACLReq) error {
	user, err := s.creds.Identity(p, r.Cred)
	if err != nil {
		return err
	}
	pol, ok := s.containers[r.Container]
	if !ok {
		return ErrNoContainer
	}
	if pol.owner != user {
		return ErrNotOwner
	}
	if pol.acl[r.Op] == nil {
		pol.acl[r.Op] = make(map[Principal]bool)
	}
	pol.acl[r.Op][r.User] = r.Allow
	if !r.Allow {
		return s.revoke(p, &revokeReq{Cred: r.Cred, Container: r.Container, Ops: []Op{r.Op}})
	}
	return nil
}

// Client issues authorization RPCs from a node.
type Client struct {
	caller *portals.Caller
	server netsim.NodeID
}

// NewClient creates a client of the authorization service at server.
func NewClient(caller *portals.Caller, server netsim.NodeID) *Client {
	return &Client{caller: caller, server: server}
}

// Caller exposes the underlying RPC caller, so fault harnesses can arm
// authorization traffic with a retry policy.
func (c *Client) Caller() *portals.Caller { return c.caller }

// CreateContainer makes a new container owned by the credential's
// principal and returns its ID.
func (c *Client) CreateContainer(p *sim.Proc, cred authn.Credential) (ContainerID, error) {
	return portals.Invoke(c.caller, p, c.server, Portal, opCreateContainer, &createContainerReq{Cred: cred}, 128, 16)
}

// GetCaps acquires capabilities for the given operations on a container
// (paper GETCAPS, Figure 4a).
func (c *Client) GetCaps(p *sim.Proc, cred authn.Credential, cid ContainerID, ops ...Op) ([]Capability, error) {
	return portals.Invoke(c.caller, p, c.server, Portal, opGetCaps,
		&getCapsReq{Cred: cred, Container: cid, Ops: ops},
		128+int64(len(ops)), int64(len(ops))*CapWireSize)
}

// VerifyCaps validates capabilities with the authorization service on
// behalf of a storage server, registering cachePort for invalidation
// callbacks. Storage servers call this on a capability-cache miss.
func (c *Client) VerifyCaps(p *sim.Proc, caps []Capability, cachePort portals.Index) error {
	_, err := portals.Invoke(c.caller, p, c.server, Portal, opVerifyCaps,
		&verifyCapsReq{Caps: caps, CachePort: cachePort},
		int64(len(caps))*CapWireSize, 16)
	return err
}

// Revoke invalidates every outstanding capability for the given ops on the
// container. When it returns, no storage server honors them.
func (c *Client) Revoke(p *sim.Proc, cred authn.Credential, cid ContainerID, ops ...Op) error {
	_, err := portals.Invoke(c.caller, p, c.server, Portal, opRevoke,
		&revokeReq{Cred: cred, Container: cid, Ops: ops}, 128+int64(len(ops)), 16)
	return err
}

// SetACL grants (allow=true) or removes (allow=false) a principal's right
// to perform op on the container. Removing access revokes outstanding
// capabilities for the op.
func (c *Client) SetACL(p *sim.Proc, cred authn.Credential, cid ContainerID, op Op, user Principal, allow bool) error {
	_, err := portals.Invoke(c.caller, p, c.server, Portal, opSetACL,
		&setACLReq{Cred: cred, Container: cid, Op: op, User: user, Allow: allow}, 160, 16)
	return err
}
