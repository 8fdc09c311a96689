package pfs

import (
	"fmt"

	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/stripe"
)

// writeParallelism bounds a client's concurrent outstanding write and sync
// RPCs (Lustre's max_rpcs_in_flight).
const writeParallelism = 8

const (
	pfsReqSize  = 256
	pfsRespSize = 64
	// clientDataPortal is where PFS clients expose transfer buffers.
	clientDataPortal portals.Index = 51
)

// Client is a baseline-PFS client for one application process. Unlike the
// LWFS client it carries no credentials or capabilities: the file system
// trusts it (§5's critique).
type Client struct {
	caller *portals.Caller
	mds    netsim.NodeID
	id     uint64 // lock-holder identity
}

// NewClient creates a PFS client sending from caller's endpoint.
func NewClient(caller *portals.Caller, mds netsim.NodeID) *Client {
	ep := caller.Endpoint()
	// Lock-holder identity must be unique across the whole system: qualify
	// the endpoint-local token with the node ID.
	id := (uint64(ep.Node())+1)<<32 | ep.NextToken()
	return &Client{caller: caller, mds: mds, id: id}
}

// File is an open file: a path plus its striping layout, and that layout as
// the stripe planner sees it, built by the first write. Figure 10's files are
// created and never written, so the planner's layout stays a pointer: nil
// until then, and it keeps the File in its size class.
type File struct {
	c       *Client
	path    string
	layout  Layout
	striped *stripe.Layout
	shared  bool
	size    int64 // local high-water mark
}

// Create makes a new file striped over `stripes` OSTs (0 = all) — one
// centralized-MDS round trip, the Figure 10b bottleneck.
func (c *Client) Create(p *sim.Proc, path string, stripes int) (*File, error) {
	l, err := portals.Invoke(c.caller, p, c.mds, MDSPortal, opMDSCreate, &mdsCreateReq{Path: path, Stripes: stripes}, pfsReqSize, 256)
	if err != nil {
		return nil, err
	}
	return &File{c: c, path: path, layout: l}, nil
}

// Open opens an existing file (an MDS round trip).
func (c *Client) Open(p *sim.Proc, path string) (*File, error) {
	l, err := portals.Invoke(c.caller, p, c.mds, MDSPortal, opMDSOpen, &mdsOpenReq{Path: path}, pfsReqSize, 256)
	if err != nil {
		return nil, err
	}
	return &File{c: c, path: path, layout: l, size: l.Size}, nil
}

// SetShared marks the file as concurrently written by multiple processes.
// A shared writer cannot hold a covering extent lock, so its writes go out
// one stripe unit at a time and take the server-side lock discipline on
// every unit — POSIX consistency doing its work (§4: "the file system's
// consistency and synchronization semantics get in the way").
func (f *File) SetShared(shared bool) { f.shared = shared }

// Write stores payload at file offset off. Data moves server-directed: the
// client exposes each request's bytes and the OST pulls them. An exclusively
// held file is planned like any stripe layout, one coalesced request per
// OST; a shared one goes out a stripe unit at a time, each unit's request
// computed from its index, so a write plans nothing per unit. The requests
// fan out at most writeParallelism at once. A byte range no file can have (a
// negative offset or size) is refused with fs.ErrInvalid.
func (f *File) Write(p *sim.Proc, off int64, payload netsim.Payload) (int64, error) {
	if err := storage.CheckRange(off, payload.Size); err != nil {
		return 0, fmt.Errorf("pfs: write %s: %w", f.path, err)
	}
	if f.striped == nil {
		s := f.layout.striped()
		f.striped = &s
	}
	l, shared := *f.striped, f.shared
	var reqs []stripe.Request
	n := 0
	switch {
	case !shared:
		reqs = l.Plan(off, payload.Size)
		n = len(reqs)
	case payload.Size > 0:
		n = int((off+payload.Size-1)/l.Unit - off/l.Unit + 1)
	}
	ep := f.c.caller.Endpoint()
	var written int64
	err := stripe.FanOut(p, "pfs/write", n, writeParallelism, func(q *sim.Proc, i int) error {
		var rq stripe.Request
		if shared {
			rq = l.UnitAt(off, payload.Size, i)
		} else {
			rq = reqs[i]
		}
		obj := l.Objs[rq.Obj]
		bits := portals.MatchBits(ep.NextToken())
		slot := ep.Expose(clientDataPortal, bits, rq.Gather(off, payload))
		defer slot.Close()
		n, err := portals.Invoke(f.c.caller, q, obj.Node, obj.Port, opOSTWrite, &ostWriteReq{
			Obj:        obj.ID,
			Off:        rq.Off,
			Len:        rq.Len,
			Bits:       bits,
			DataPortal: clientDataPortal,
			ClientID:   f.c.id,
		}, pfsReqSize, pfsRespSize)
		if err != nil {
			return err
		}
		written += n
		return nil
	})
	if end := off + payload.Size; end > f.size {
		f.size = end
	}
	return written, err
}

// Sync flushes every OST in the layout (fsync).
func (f *File) Sync(p *sim.Proc) error {
	return stripe.FanOut(p, "pfs/sync", len(f.layout.OSTs), writeParallelism, func(q *sim.Proc, i int) error {
		t := f.layout.OSTs[i]
		_, err := portals.Invoke(f.c.caller, q, t.Node, t.Port, opOSTSync, &ostSyncReq{}, pfsReqSize, pfsRespSize)
		return err
	})
}

// Close reports the file size to the MDS (size is MDS metadata in this
// baseline, as in Lustre 1.x close-time size updates).
func (f *File) Close(p *sim.Proc) error {
	_, err := portals.Invoke(f.c.caller, p, f.c.mds, MDSPortal, opMDSSetSize, &mdsSetSizeReq{Path: f.path, Size: f.size}, pfsReqSize, pfsRespSize)
	return err
}
