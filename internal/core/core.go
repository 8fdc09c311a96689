// Package core is the LWFS client library: the user-visible face of the
// LWFS-core (paper §3, Figures 2–4). A Client bundles, for one application
// process, the authentication, authorization, storage, naming and
// transaction clients, and implements the protocol patterns the paper
// builds its case study from:
//
//	cred := client.Login(...)                  // GETCREDS
//	cid  := client.CreateContainer(...)        // CREATECONTAINER
//	caps := client.GetCaps(cid, ops...)        // GETCAPS
//	tx   := client.BeginTxn()                  // BEGINTXN
//	ref  := client.CreateObjectTxn(...)        // CREATEOBJ
//	client.Write(ref, cap, off, data)          // DUMPSTATE (server pulls)
//	client.CreateName(path, ref, tx.ID)        // CREATENAME
//	tx.Commit(p)                               // ENDTXN
//
// The core imposes *no* distribution, caching or consistency policy: a
// Client exposes the list of storage servers and lets the application (or a
// library above, like internal/lwfspfs) place objects however it wants —
// guideline 3 of §3.
package core

import (
	"errors"
	"fmt"

	"lwfs/internal/authn"
	"lwfs/internal/authz"
	"lwfs/internal/naming"
	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/portals"
	"lwfs/internal/qos"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/txn"
)

// capsPortal receives capability-scatter messages (Figure 4a step 3).
const capsPortal portals.Index = 18

// System locates the LWFS services a client talks to: authentication,
// authorization, naming and the lock service on the admin node, and the
// storage servers.
type System struct {
	Admin   netsim.NodeID
	Storage []storage.Target
}

// CapSet is a container's capabilities, one per operation.
type CapSet struct {
	Container authz.ContainerID
	Caps      map[authz.Op]authz.Capability
}

// Get returns the capability for op (zero if absent).
func (cs CapSet) Get(op authz.Op) authz.Capability { return cs.Caps[op] }

// ErrNotLoggedIn is returned by operations that need a credential before
// Login succeeded.
var ErrNotLoggedIn = errors.New("core: not logged in")

// Client is the LWFS client library instance for one application process.
type Client struct {
	ep     *portals.Endpoint
	sys    System
	caller *portals.Caller
	sc     storage.Client
	svc    *services // nil until first used

	cred    authn.Credential
	scatter *sim.Mailbox
	addr    ProcAddr
	breaker *qos.Breaker
}

// services are the clients of the admin node's services and the
// transaction coordinator. A checkpoint rank other than 0 only writes, so
// they are built on first use: none of them reserves a token or a match
// entry, so building them late sends nothing differently.
type services struct {
	authn authn.Client
	authz authz.Client
	nc    naming.Client
	co    txn.Coordinator
	lc    txn.LockClient
}

func (c *Client) services() *services {
	if c.svc == nil {
		c.svc = &services{
			authn: *authn.NewClient(c.caller, c.sys.Admin),
			authz: *authz.NewClient(c.caller, c.sys.Admin),
			nc:    *naming.NewClient(c.caller, c.sys.Admin),
			co:    *txn.NewCoordinator(c.caller),
			lc:    *txn.NewLockClient(c.ep, c.sys.Admin, uint64(c.ep.Node())),
		}
	}
	return c.svc
}

// ProcAddr addresses one client *process* for capability scatter: several
// processes can share a node, so the node alone is not enough — the match
// bits select the process's scatter match entry.
type ProcAddr struct {
	Node netsim.NodeID
	Bits portals.MatchBits
}

// NewClient creates a client on ep's node for the given system.
func NewClient(ep *portals.Endpoint, sys System) *Client {
	caller := portals.NewCaller(ep)
	c := &Client{
		ep:     ep,
		sys:    sys,
		caller: caller,
		sc:     *storage.NewClient(caller),
	}
	c.scatter = sim.NewMailbox(ep.Kernel(), fmt.Sprintf("client%d/caps", ep.Node()))
	c.addr = ProcAddr{Node: ep.Node(), Bits: portals.MatchBits(ep.NextToken())}
	ep.Attach(capsPortal, c.addr.Bits, 0, &portals.MD{EQ: c.scatter})
	return c
}

// Addr returns the client's scatter address.
func (c *Client) Addr() ProcAddr { return c.addr }

// Caller exposes the client's RPC caller (fault harnesses, statistics).
func (c *Client) Caller() *portals.Caller { return c.caller }

// SetRetry arms every RPC this client issues — authentication,
// authorization, naming, storage, transaction control — with a retry
// policy. seed keys the backoff jitter so chaos runs stay deterministic;
// pass a value derived from the process rank.
func (c *Client) SetRetry(pol portals.RetryPolicy, seed int64) {
	c.caller.SetRetry(pol, sim.NewRand(seed))
}

// SetBreaker arms every RPC this client issues with a circuit breaker:
// consecutive timeouts or overload sheds against one (node, portal) open
// its circuit, and further attempts fast-fail with portals.ErrCircuitOpen
// (which failover paths treat exactly like a timeout, minus the wait)
// until a half-open probe succeeds. The per-target health it derives is
// consulted by the stripe engine's degraded reads.
func (c *Client) SetBreaker(pol qos.BreakerPolicy) {
	c.breaker = qos.NewBreakerFor(c.ep, pol)
	c.caller.SetBreaker(c.breaker)
}

// HealthOf reports the client's local opinion of a storage target, derived
// from its breaker history (Ok when no breaker is armed).
func (c *Client) HealthOf(t storage.Target) qos.Health {
	if c.breaker == nil {
		return qos.Ok
	}
	return c.breaker.HealthOf(t.Node, t.Port)
}

// Node returns the client's node.
func (c *Client) Node() netsim.NodeID { return c.ep.Node() }

// Endpoint exposes the client's portals endpoint so libraries layered on
// the core (collective I/O, custom exchange protocols) can move data among
// ranks directly — the open-architecture posture of §3.
func (c *Client) Endpoint() *portals.Endpoint { return c.ep }

// Servers returns the storage servers the client knows about. Applications
// implement their own data-distribution policies over this list.
func (c *Client) Servers() []storage.Target { return c.sys.Storage }

// Server returns storage server i (modulo the server count), a convenient
// round-robin placement primitive. Any i is in range, negative too: callers
// pass hashes and sums that may have wrapped.
func (c *Client) Server(i int) storage.Target {
	return c.sys.Storage[mod(i, len(c.sys.Storage))]
}

// mod is the Euclidean remainder of i by n > 0: in [0, n) whatever i's sign.
func mod(i, n int) int {
	if i %= n; i < 0 {
		i += n
	}
	return i
}

// Locks returns the lock client (nil if the system has no lock service).
func (c *Client) Locks() *txn.LockClient { return &c.services().lc }

// Login authenticates and stores the credential (GETCREDS).
func (c *Client) Login(p *sim.Proc, user authn.Principal, secret string) error {
	cred, err := c.services().authn.Login(p, user, secret)
	if err != nil {
		return err
	}
	c.cred = cred
	return nil
}

// Credential returns the stored credential. Credentials are transferable:
// hand it to other processes with SetCredential.
func (c *Client) Credential() authn.Credential { return c.cred }

// SetCredential installs a credential obtained elsewhere (a transferred
// identity, per §3.1.2).
func (c *Client) SetCredential(cred authn.Credential) { c.cred = cred }

// Logout revokes the stored credential.
func (c *Client) Logout(p *sim.Proc) error {
	if c.cred.Zero() {
		return ErrNotLoggedIn
	}
	err := c.services().authn.Revoke(p, c.cred)
	c.cred = authn.Credential{}
	return err
}

// CreateContainer makes a new container owned by this principal.
func (c *Client) CreateContainer(p *sim.Proc) (authz.ContainerID, error) {
	if c.cred.Zero() {
		return 0, ErrNotLoggedIn
	}
	return c.services().authz.CreateContainer(p, c.cred)
}

// GetCaps acquires capabilities for ops on a container (GETCAPS).
func (c *Client) GetCaps(p *sim.Proc, cid authz.ContainerID, ops ...authz.Op) (CapSet, error) {
	if c.cred.Zero() {
		return CapSet{}, ErrNotLoggedIn
	}
	caps, err := c.services().authz.GetCaps(p, c.cred, cid, ops...)
	if err != nil {
		return CapSet{}, err
	}
	cs := CapSet{Container: cid, Caps: make(map[authz.Op]authz.Capability, len(caps))}
	for _, cap := range caps {
		cs.Caps[cap.Op] = cap
	}
	return cs, nil
}

// RenewCaps re-acquires the same operations on the same container; data
// operations renew on their own (renewed).
func (c *Client) RenewCaps(p *sim.Proc, caps CapSet) (CapSet, error) {
	ops := make([]authz.Op, 0, len(caps.Caps))
	for _, op := range authz.AllOps {
		if _, ok := caps.Caps[op]; ok {
			ops = append(ops, op)
		}
	}
	return c.GetCaps(p, caps.Container, ops...)
}

// renewed is transparent capability renewal: after a data operation's
// first try failed with err on an expired capability, it re-acquires the
// set into *caps, and the operation tries once more. NASD makes the
// application re-acquire everything itself — painful for checkpoints with
// long gaps between accesses (§5). A revoked capability still fails.
func (c *Client) renewed(p *sim.Proc, caps *CapSet, err error) bool {
	if err == nil || !errors.Is(err, authz.ErrExpiredCap) {
		return false
	}
	fresh, rerr := c.RenewCaps(p, *caps)
	if rerr != nil {
		return false
	}
	*caps = fresh
	return true
}

// Revoke invalidates outstanding capabilities for ops on the container.
func (c *Client) Revoke(p *sim.Proc, cid authz.ContainerID, ops ...authz.Op) error {
	if c.cred.Zero() {
		return ErrNotLoggedIn
	}
	return c.services().authz.Revoke(p, c.cred, cid, ops...)
}

// SetACL grants or removes another principal's access to a container.
func (c *Client) SetACL(p *sim.Proc, cid authz.ContainerID, op authz.Op, user authn.Principal, allow bool) error {
	if c.cred.Zero() {
		return ErrNotLoggedIn
	}
	return c.services().authz.SetACL(p, c.cred, cid, op, user, allow)
}

// CreateObject allocates an object on the target server (CREATEOBJ).
func (c *Client) CreateObject(p *sim.Proc, t storage.Target, caps CapSet) (storage.ObjRef, error) {
	return c.sc.Create(p, t, caps.Get(authz.OpCreate), caps.Container)
}

// CreateObjectTxn is CreateObject inside a transaction: the object exists
// only if tx commits. The server is enlisted automatically — after the
// create succeeds, so a server that was never reached (crashed, partitioned)
// cannot poison the commit.
func (c *Client) CreateObjectTxn(p *sim.Proc, t storage.Target, caps CapSet, tx *txn.Txn) (storage.ObjRef, error) {
	ref, err := c.sc.CreateTxn(p, t, caps.Get(authz.OpCreate), caps.Container, tx.ID)
	if err == nil {
		tx.Enlist(storage.TxnEndpointOf(t))
	}
	return ref, err
}

// Write stores payload at off in the object (server-directed pull).
func (c *Client) Write(p *sim.Proc, ref storage.ObjRef, caps CapSet, off int64, payload netsim.Payload) (n int64, err error) {
	n, err = c.sc.Write(p, ref, caps.Get(authz.OpWrite), off, payload)
	if c.renewed(p, &caps, err) {
		n, err = c.sc.Write(p, ref, caps.Get(authz.OpWrite), off, payload)
	}
	return n, err
}

// Read fetches [off, off+length) of the object (server-directed push).
func (c *Client) Read(p *sim.Proc, ref storage.ObjRef, caps CapSet, off, length int64) (out netsim.Payload, err error) {
	out, err = c.sc.Read(p, ref, caps.Get(authz.OpRead), off, length)
	if c.renewed(p, &caps, err) {
		out, err = c.sc.Read(p, ref, caps.Get(authz.OpRead), off, length)
	}
	return out, err
}

// Filter runs a deployed server-side filter over the object range and
// returns its (small) result — the §6 "remote processing" extension: the
// scan happens next to the disk; only the answer crosses the network.
// Requires an OpRead capability.
func (c *Client) Filter(p *sim.Proc, ref storage.ObjRef, caps CapSet, off, length int64, name, args string, maxResult int64) (out []byte, err error) {
	out, err = c.sc.Filter(p, ref, caps.Get(authz.OpRead), off, length, name, args, maxResult)
	if c.renewed(p, &caps, err) {
		out, err = c.sc.Filter(p, ref, caps.Get(authz.OpRead), off, length, name, args, maxResult)
	}
	return out, err
}

// Copy performs a third-party transfer: the destination server pulls the
// range straight from the source server, so redistribution traffic crosses
// the network once instead of relaying through this client. Needs OpWrite
// on the destination's container and OpRead on the source's.
func (c *Client) Copy(p *sim.Proc, dst storage.ObjRef, dstCaps CapSet, dstOff int64,
	src storage.ObjRef, srcCaps CapSet, srcOff, length int64) (int64, error) {
	return c.sc.Copy(p, dst, dstCaps.Get(authz.OpWrite), dstOff,
		src, srcCaps.Get(authz.OpRead), srcOff, length)
}

// Remove deletes the object.
func (c *Client) Remove(p *sim.Proc, ref storage.ObjRef, caps CapSet) error {
	return c.sc.Remove(p, ref, caps.Get(authz.OpRemove))
}

// Truncate sets the object's logical size.
func (c *Client) Truncate(p *sim.Proc, ref storage.ObjRef, caps CapSet, size int64) error {
	var err error
	err = c.sc.Truncate(p, ref, caps.Get(authz.OpWrite), size)
	if c.renewed(p, &caps, err) {
		err = c.sc.Truncate(p, ref, caps.Get(authz.OpWrite), size)
	}
	return err
}

// Stat returns object metadata.
func (c *Client) Stat(p *sim.Proc, ref storage.ObjRef, caps CapSet) (osd.Stat, error) {
	return c.sc.Stat(p, ref, caps.Get(authz.OpRead))
}

// List enumerates the container's objects on one server.
func (c *Client) List(p *sim.Proc, t storage.Target, caps CapSet) ([]osd.ObjectID, error) {
	return c.sc.List(p, t, caps.Get(authz.OpList), caps.Container)
}

// Sync flushes one storage server.
func (c *Client) Sync(p *sim.Proc, t storage.Target, caps CapSet) error {
	// Any valid capability works; pick deterministically so identical runs
	// stay identical (map iteration order is randomized).
	var anyCap authz.Capability
	for _, op := range authz.AllOps {
		if cap, ok := caps.Caps[op]; ok {
			anyCap = cap
			break
		}
	}
	return c.sc.Sync(p, t, anyCap)
}

// SetAttr and GetAttr manage object attributes (checkpoint metadata tags).
func (c *Client) SetAttr(p *sim.Proc, ref storage.ObjRef, caps CapSet, key, value string) error {
	return c.sc.SetAttr(p, ref, caps.Get(authz.OpWrite), key, value)
}

// GetAttr reads an object attribute.
func (c *Client) GetAttr(p *sim.Proc, ref storage.ObjRef, caps CapSet, key string) (string, error) {
	return c.sc.GetAttr(p, ref, caps.Get(authz.OpRead), key)
}

// BeginTxn starts a distributed transaction (BEGINTXN).
func (c *Client) BeginTxn() *txn.Txn { return c.services().co.Begin() }

// EnlistNaming adds the naming service to a transaction.
func (c *Client) EnlistNaming(tx *txn.Txn) {
	tx.Enlist(c.services().nc.TxnEndpoint())
}

// CreateName binds a path to an object reference, optionally inside a
// transaction (CREATENAME): CreateNameRefs of one ref.
func (c *Client) CreateName(p *sim.Proc, path string, ref storage.ObjRef, tx *txn.Txn) error {
	return c.CreateNameRefs(p, path, []storage.ObjRef{ref}, tx)
}

// CreateNameRefs binds a path to a set of mirrored object references,
// optionally inside a transaction. refs[0] becomes the entry's primary.
func (c *Client) CreateNameRefs(p *sim.Proc, path string, refs []storage.ObjRef, tx *txn.Txn) error {
	if c.cred.Zero() {
		return ErrNotLoggedIn
	}
	var id txn.ID
	if tx != nil {
		c.EnlistNaming(tx)
		id = tx.ID
	}
	return c.services().nc.CreateRefs(p, c.cred, path, refs, id)
}

// SetNameRefs replaces the mirror set of an existing file entry. With a
// transaction the swap takes effect at commit; the old refs stay visible
// until then.
func (c *Client) SetNameRefs(p *sim.Proc, path string, refs []storage.ObjRef, tx *txn.Txn) error {
	if c.cred.Zero() {
		return ErrNotLoggedIn
	}
	var id txn.ID
	if tx != nil {
		c.EnlistNaming(tx)
		id = tx.ID
	}
	return c.services().nc.SetRefs(p, c.cred, path, refs, id)
}

// Lookup resolves a path.
func (c *Client) Lookup(p *sim.Proc, path string) (naming.Entry, error) {
	if c.cred.Zero() {
		return naming.Entry{}, ErrNotLoggedIn
	}
	return c.services().nc.Lookup(p, c.cred, path)
}

// Mkdir creates a namespace directory.
func (c *Client) Mkdir(p *sim.Proc, path string) error {
	if c.cred.Zero() {
		return ErrNotLoggedIn
	}
	return c.services().nc.Mkdir(p, c.cred, path)
}

// RemoveName unlinks a path and returns the entry it held.
func (c *Client) RemoveName(p *sim.Proc, path string) (naming.Entry, error) {
	if c.cred.Zero() {
		return naming.Entry{}, ErrNotLoggedIn
	}
	return c.services().nc.Remove(p, c.cred, path)
}

// ListNames lists a namespace directory.
func (c *Client) ListNames(p *sim.Proc, path string) ([]string, error) {
	if c.cred.Zero() {
		return nil, ErrNotLoggedIn
	}
	return c.services().nc.List(p, c.cred, path)
}

// scatterMsg carries credentials + capabilities down the scatter tree, as
// the header of a scatterHdr Put.
type scatterMsg struct {
	Cred    authn.Credential
	Caps    CapSet
	Forward []ProcAddr // subtree this receiver is responsible for
}

var scatterHdr = portals.NewHeader[scatterMsg]()

// ScatterCaps distributes the credential and capability set to peer client
// processes along a binomial tree — the logarithmic "scatter" of Figure 4a.
// Exactly one process (the root) calls ScatterCaps; every peer calls
// WaitCaps. Message count is len(peers); depth is O(log n).
func (c *Client) ScatterCaps(p *sim.Proc, caps CapSet, peers []ProcAddr) {
	c.forward(scatterMsg{Cred: c.cred, Caps: caps, Forward: peers})
}

func (c *Client) forward(m scatterMsg) {
	peers := m.Forward
	for len(peers) > 0 {
		// Hand the first peer responsibility for the first half of the
		// remainder; keep the second half.
		half := (len(peers)-1)/2 + 1
		child, childTree := peers[0], peers[1:half]
		scatterHdr.Put(c.ep, child.Node, capsPortal, child.Bits,
			&scatterMsg{Cred: m.Cred, Caps: m.Caps, Forward: childTree},
			netsim.SyntheticPayload(int64(authz.CapWireSize*len(m.Caps.Caps)+96)))
		peers = peers[half:]
	}
}

// WaitCaps blocks until a scattered capability set arrives, installs the
// credential, forwards to this node's subtree, and returns the capabilities.
func (c *Client) WaitCaps(p *sim.Proc) (CapSet, error) {
	ev := c.scatter.Recv(p).(*portals.Event)
	mp := scatterHdr.Of(ev)
	if mp == nil {
		return CapSet{}, fmt.Errorf("core: unexpected scatter payload %s", portals.DescribeBody(ev))
	}
	m := *mp
	ev.Release()
	c.cred = m.Cred
	c.forward(m)
	return m.Caps, nil
}
