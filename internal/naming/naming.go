// Package naming implements a namespace service for LWFS. In the paper's
// architecture (Figure 3) naming is *not* part of the LWFS-core: it is one
// of the client-side services layered above it, which is exactly why a
// checkpoint pays for it once per dataset instead of once per file create
// (§4). The service maps hierarchical paths to object references
// (storage-server + object-ID pairs) and participates in distributed
// transactions so that a name and the objects it describes appear
// atomically (Figure 8: CREATENAME runs inside the checkpoint transaction).
package naming

import (
	"errors"
	"fmt"
	gopath "path"
	"sort"
	"strings"
	"time"

	"lwfs/internal/authn"
	"lwfs/internal/metrics"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/txn"
)

// Portal is the well-known portal index of the naming service.
const Portal portals.Index = 12

// TxnPortal is where the naming service's transaction participant listens.
const TxnPortal portals.Index = 13

// Entry is one namespace entry. A file entry lists its metadata object's
// mirrors in Refs, the primary first; a directory has none.
type Entry struct {
	Path  string
	IsDir bool
	Refs  []storage.ObjRef // nil for directories; the primary is Refs[0]
	Owner authn.Principal
}

// Errors reported by the service.
var (
	ErrExists   = errors.New("naming: entry already exists")
	ErrNotFound = errors.New("naming: no such entry")
	ErrNotDir   = errors.New("naming: parent is not a directory")
	ErrIsDir    = errors.New("naming: entry is a directory")
	ErrNotEmpty = errors.New("naming: directory not empty")
	ErrNotOwner = errors.New("naming: not the entry owner")
	ErrBadPath  = errors.New("naming: bad path")
	ErrBadCred  = errors.New("naming: credential rejected")
)

// opCost is the CPU time per namespace operation, a calibration constant
// (DESIGN.md §7).
const opCost = 80 * time.Microsecond

type node struct {
	entry    Entry
	children map[string]*node
	pending  bool // created under an uncommitted transaction
}

// Service is the naming server.
type Service struct {
	creds *authn.CredCache
	root  *node
	part  *txn.Participant

	lookups, creates, removes, setrefs *metrics.Counter
}

// request bodies

type mkdirReq struct {
	Cred authn.Credential
	Path string
}

type createReq struct {
	Cred authn.Credential
	Path string
	Refs []storage.ObjRef
	Txn  txn.ID
}

type setRefsReq struct {
	Cred authn.Credential
	Path string
	Refs []storage.ObjRef
	Txn  txn.ID
}

type lookupReq struct {
	Cred authn.Credential
	Path string
}

type removeReq struct {
	Cred authn.Credential
	Path string
}

type listReq struct {
	Cred authn.Credential
	Path string
}

// Start binds the naming service to ep's node. part is the service's
// transaction participant (created by the caller so the journal device is
// explicit); it may be nil if transactional naming is not needed.
func Start(ep *portals.Endpoint, ac *authn.Client, part *txn.Participant) *Service {
	s := &Service{
		creds: authn.NewCredCache(ac),
		root:  &node{entry: Entry{Path: "/", IsDir: true}, children: make(map[string]*node)},
		part:  part,
	}
	nm := ep.Metrics().Scope("naming")
	s.lookups = nm.Counter("lookups")
	s.creates = nm.Counter("creates")
	s.removes = nm.Counter("removes")
	s.setrefs = nm.Counter("setrefs")
	portals.ServeOps(ep, Portal, "naming", 2, serviceOps, s)
	return s
}

// principal charges a request's parse cost, then resolves its credential
// through the credential cache; a refusal answers ErrBadCred.
func (s *Service) principal(p *sim.Proc, cred authn.Credential) (authn.Principal, error) {
	p.Sleep(opCost)
	user, err := s.creds.Identity(p, cred)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadCred, err)
	}
	return user, nil
}

// walk resolves a clean path to its node. Pending nodes are invisible.
func (s *Service) walk(path string) (*node, error) {
	if path == "/" {
		return s.root, nil
	}
	cur := s.root
	for _, part := range strings.Split(strings.TrimPrefix(path, "/"), "/") {
		next, ok := cur.children[part]
		if !ok || next.pending {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
		}
		cur = next
	}
	return cur, nil
}

// splitClean validates and splits a path into (parent, base). A newline is
// refused: paths are logged as txn journal records, one per line.
func splitClean(path string) (string, string, error) {
	if path == "" || path[0] != '/' || strings.IndexByte(path, '\n') >= 0 {
		return "", "", fmt.Errorf("%w: %q", ErrBadPath, path)
	}
	clean := gopath.Clean(path)
	if clean == "/" {
		return "", "", fmt.Errorf("%w: %q is the root", ErrBadPath, path)
	}
	dir, base := gopath.Split(clean)
	return gopath.Clean(dir), base, nil
}

// The naming service's operations, and its handler table.
var (
	opMkdir   = portals.NewOp[mkdirReq, struct{}]()
	opCreate  = portals.NewOp[createReq, struct{}]()
	opSetRefs = portals.NewOp[setRefsReq, struct{}]()
	opLookup  = portals.NewOp[lookupReq, Entry]()
	opRemove  = portals.NewOp[removeReq, Entry]()
	opList    = portals.NewOp[listReq, []string]()

	serviceOps = portals.NewOps(
		portals.Handle(opMkdir, (*Service).mkdir),
		portals.Handle(opCreate, (*Service).create),
		portals.Handle(opSetRefs, (*Service).setRefs),
		portals.Handle(opLookup, (*Service).lookup),
		portals.Handle(opRemove, (*Service).remove),
		portals.Handle(opList, (*Service).list),
	)
)

func (s *Service) mkdir(p *sim.Proc, _ netsim.NodeID, r *mkdirReq) (struct{}, error) {
	user, err := s.principal(p, r.Cred)
	if err != nil {
		return struct{}{}, err
	}
	_, err = s.insert(r.Path, Entry{IsDir: true, Owner: user}, 0)
	return struct{}{}, err
}

func (s *Service) create(p *sim.Proc, _ netsim.NodeID, r *createReq) (struct{}, error) {
	user, err := s.principal(p, r.Cred)
	if err != nil {
		return struct{}{}, err
	}
	s.creates.Inc()
	nd, err := s.insert(r.Path, Entry{Refs: r.Refs, Owner: user}, r.Txn)
	if err != nil {
		return struct{}{}, err
	}
	if r.Txn != 0 && s.part != nil {
		// The namespace is volatile, so the record need not be on disk
		// before the vote: it rides the vote's one append (Defer).
		if err := s.part.Defer(txn.JournalRecord{Txn: r.Txn, Kind: "name", Detail: nd.entry.Path}); err != nil {
			s.unlink(nd.entry.Path) //nolint:errcheck // just inserted
			return struct{}{}, err
		}
		s.part.OnCommit(r.Txn, func(q *sim.Proc) { nd.pending = false })
		s.part.OnAbort(r.Txn, func(q *sim.Proc) { s.unlink(nd.entry.Path) })
	}
	return struct{}{}, nil
}

func (s *Service) setRefs(p *sim.Proc, _ netsim.NodeID, r *setRefsReq) (struct{}, error) {
	user, err := s.principal(p, r.Cred)
	if err != nil {
		return struct{}{}, err
	}
	s.setrefs.Inc()
	nd, err := s.walk(gopath.Clean(r.Path))
	if err != nil {
		return struct{}{}, err
	}
	if nd.entry.IsDir {
		return struct{}{}, fmt.Errorf("%w: %s", ErrIsDir, r.Path)
	}
	if nd.entry.Owner != user {
		return struct{}{}, ErrNotOwner
	}
	if len(r.Refs) == 0 {
		return struct{}{}, fmt.Errorf("%w: empty ref set for %s", ErrBadPath, r.Path)
	}
	refs := append([]storage.ObjRef(nil), r.Refs...)
	if r.Txn != 0 && s.part != nil {
		// The old refs stay visible until the transaction commits, so
		// an aborted re-home never dangles the entry at objects the
		// abort is about to delete.
		if err := s.part.Defer(txn.JournalRecord{Txn: r.Txn, Kind: "setrefs", Detail: nd.entry.Path}); err != nil {
			return struct{}{}, err
		}
		s.part.OnCommit(r.Txn, func(q *sim.Proc) { nd.entry.Refs = refs })
		return struct{}{}, nil
	}
	nd.entry.Refs = refs
	return struct{}{}, nil
}

func (s *Service) lookup(p *sim.Proc, _ netsim.NodeID, r *lookupReq) (Entry, error) {
	if _, err := s.principal(p, r.Cred); err != nil {
		return Entry{}, err
	}
	s.lookups.Inc()
	nd, err := s.walk(gopath.Clean(r.Path))
	if err != nil {
		return Entry{}, err
	}
	return nd.entry, nil
}

func (s *Service) remove(p *sim.Proc, _ netsim.NodeID, r *removeReq) (Entry, error) {
	user, err := s.principal(p, r.Cred)
	if err != nil {
		return Entry{}, err
	}
	s.removes.Inc()
	nd, err := s.walk(gopath.Clean(r.Path))
	if err != nil {
		return Entry{}, err
	}
	if nd.entry.Owner != user {
		return Entry{}, ErrNotOwner
	}
	if nd.entry.IsDir && len(nd.children) > 0 {
		return Entry{}, ErrNotEmpty
	}
	return nd.entry, s.unlink(nd.entry.Path)
}

func (s *Service) list(p *sim.Proc, _ netsim.NodeID, r *listReq) ([]string, error) {
	if _, err := s.principal(p, r.Cred); err != nil {
		return nil, err
	}
	nd, err := s.walk(gopath.Clean(r.Path))
	if err != nil {
		return nil, err
	}
	if !nd.entry.IsDir {
		return nil, fmt.Errorf("%w: %s", ErrNotDir, r.Path)
	}
	var names []string
	for name, child := range nd.children {
		if !child.pending {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// insert adds an entry (pending when txnID != 0).
func (s *Service) insert(path string, e Entry, txnID txn.ID) (*node, error) {
	parent, base, err := splitClean(path)
	if err != nil {
		return nil, err
	}
	pn, err := s.walk(parent)
	if err != nil {
		return nil, err
	}
	if !pn.entry.IsDir {
		return nil, fmt.Errorf("%w: %s", ErrNotDir, parent)
	}
	if _, ok := pn.children[base]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, path)
	}
	e.Path = gopath.Join(parent, base)
	nd := &node{entry: e, pending: txnID != 0}
	if e.IsDir {
		nd.children = make(map[string]*node)
	}
	pn.children[base] = nd
	return nd, nil
}

// unlink removes the entry at path (pending or not).
func (s *Service) unlink(path string) error {
	parent, base, err := splitClean(path)
	if err != nil {
		return err
	}
	pn, err := s.walk(parent)
	if err != nil {
		return err
	}
	if _, ok := pn.children[base]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	delete(pn.children, base)
	return nil
}

// Client issues naming RPCs from a node.
type Client struct {
	caller *portals.Caller
	server netsim.NodeID
}

// NewClient creates a client of the naming service at server.
func NewClient(caller *portals.Caller, server netsim.NodeID) *Client {
	return &Client{caller: caller, server: server}
}

// TxnEndpoint returns the participant endpoint for enlisting the naming
// service in a transaction.
func (c *Client) TxnEndpoint() txn.Endpoint {
	return txn.Endpoint{Node: c.server, Port: TxnPortal}
}

func pathSize(path string) int64 { return 128 + int64(len(path)) }

// Mkdir creates a directory.
func (c *Client) Mkdir(p *sim.Proc, cred authn.Credential, path string) error {
	_, err := portals.Invoke(c.caller, p, c.server, Portal, opMkdir, &mkdirReq{Cred: cred, Path: path}, pathSize(path), 16)
	return err
}

// CreateRefs binds path to a set of mirrored object references. The first
// ref becomes the entry's primary; Lookup returns all of them in
// Entry.Refs. With id != 0 the entry is provisional until the transaction
// commits (the paper's CREATENAME(txnid, path, mdobj)).
func (c *Client) CreateRefs(p *sim.Proc, cred authn.Credential, path string, refs []storage.ObjRef, id txn.ID) error {
	if len(refs) == 0 {
		return fmt.Errorf("%w: empty ref set for %s", ErrBadPath, path)
	}
	_, err := portals.Invoke(c.caller, p, c.server, Portal, opCreate,
		&createReq{Cred: cred, Path: path, Refs: refs, Txn: id},
		pathSize(path)+64*int64(len(refs)), 16)
	return err
}

// SetRefs replaces the mirror set of an existing file entry. With id != 0
// the swap is deferred to transaction commit — the old refs stay visible
// until then — which is how Rebuild re-homes a metadata mirror atomically
// with writing its replacement. Only the entry owner may change refs.
func (c *Client) SetRefs(p *sim.Proc, cred authn.Credential, path string, refs []storage.ObjRef, id txn.ID) error {
	_, err := portals.Invoke(c.caller, p, c.server, Portal, opSetRefs,
		&setRefsReq{Cred: cred, Path: path, Refs: refs, Txn: id},
		pathSize(path)+64*int64(len(refs)), 16)
	return err
}

// Lookup resolves path to its entry.
func (c *Client) Lookup(p *sim.Proc, cred authn.Credential, path string) (Entry, error) {
	return portals.Invoke(c.caller, p, c.server, Portal, opLookup, &lookupReq{Cred: cred, Path: path}, pathSize(path), 160)
}

// Remove unlinks path (files, or empty directories) and returns the removed
// entry so callers can release the underlying objects.
func (c *Client) Remove(p *sim.Proc, cred authn.Credential, path string) (Entry, error) {
	return portals.Invoke(c.caller, p, c.server, Portal, opRemove, &removeReq{Cred: cred, Path: path}, pathSize(path), 160)
}

// List returns the names in a directory, sorted.
func (c *Client) List(p *sim.Proc, cred authn.Credential, path string) ([]string, error) {
	return portals.Invoke(c.caller, p, c.server, Portal, opList, &listReq{Cred: cred, Path: path}, pathSize(path), 1024)
}
