package pfs

import (
	"fmt"

	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
)

// writeParallelism bounds a client's concurrent outstanding write RPCs
// (Lustre's max_rpcs_in_flight).
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

// File is an open file: a path plus its striping layout.
type File struct {
	c      *Client
	path   string
	layout Layout
	shared bool
	size   int64 // local high-water mark
}

// Create makes a new file striped over `stripes` OSTs (0 = all) — one
// centralized-MDS round trip, the Figure 10b bottleneck.
func (c *Client) Create(p *sim.Proc, path string, stripes int) (*File, error) {
	v, err := c.caller.Call(p, c.mds, MDSPortal, mdsCreateReq{Path: path, Stripes: stripes}, pfsReqSize, 256)
	if err != nil {
		return nil, err
	}
	l := v.(Layout)
	return &File{c: c, path: path, layout: l}, nil
}

// Open opens an existing file (an MDS round trip).
func (c *Client) Open(p *sim.Proc, path string) (*File, error) {
	v, err := c.caller.Call(p, c.mds, MDSPortal, mdsOpenReq{Path: path}, pfsReqSize, 256)
	if err != nil {
		return nil, err
	}
	l := v.(Layout)
	return &File{c: c, path: path, layout: l, size: l.Size}, nil
}

// SetShared marks the file as concurrently written by multiple processes.
// A shared writer cannot hold a covering extent lock, so its writes go out
// one stripe unit at a time and take the server-side lock discipline on
// every unit — POSIX consistency doing its work (§4: "the file system's
// consistency and synchronization semantics get in the way").
func (f *File) SetShared(shared bool) { f.shared = shared }

// piece is one client-side transfer: a contiguous object-space run on one
// OST, gathered from (possibly strided) file-space data.
type piece struct {
	ost    OSTTarget
	obj    int // stripe index
	objOff int64
	length int64
}

// pieces plans the transfers for [off, off+length): coalesced per-OST runs
// for an exclusively-held file, stripe-unit-sized requests for a shared one.
func (f *File) pieces(off, length int64) []piece {
	unit := f.layout.StripeUnit
	m := len(f.layout.OSTs)
	var out []piece
	if f.shared {
		for cur := off; cur < off+length; {
			w := cur / unit
			hi := (w + 1) * unit
			if hi > off+length {
				hi = off + length
			}
			i := int(w % int64(m))
			out = append(out, piece{
				ost:    f.layout.OSTs[i],
				obj:    i,
				objOff: (w/int64(m))*unit + (cur - w*unit),
				length: hi - cur,
			})
			cur = hi
		}
		return out
	}
	for i := 0; i < m; i++ {
		for _, r := range stripeRuns(off, length, unit, m, i) {
			out = append(out, piece{ost: f.layout.OSTs[i], obj: i, objOff: r.objOff, length: r.len})
		}
	}
	return out
}

// fileOff maps an object-space offset of stripe i back to file space.
func (f *File) fileOff(i int, objOff int64) int64 {
	unit := f.layout.StripeUnit
	m := int64(len(f.layout.OSTs))
	w := (objOff / unit) * m
	return (w+int64(i))*unit + objOff%unit
}

// gather builds the wire payload for a piece from the write payload.
func (f *File) gather(pc piece, off int64, payload netsim.Payload) netsim.Payload {
	if payload.Data == nil {
		return netsim.SyntheticPayload(pc.length)
	}
	out := make([]byte, pc.length)
	unit := f.layout.StripeUnit
	for done := int64(0); done < pc.length; {
		objOff := pc.objOff + done
		fo := f.fileOff(pc.obj, objOff)
		n := unit - objOff%unit
		if n > pc.length-done {
			n = pc.length - done
		}
		copy(out[done:done+n], payload.Data[fo-off:])
		done += n
	}
	return netsim.BytesPayload(out)
}

// parallel runs fn over n indices with bounded concurrency and returns the
// first error.
func (f *File) parallel(p *sim.Proc, n int, fn func(q *sim.Proc, i int) error) error {
	k := p.Kernel()
	var wg sim.WaitGroup
	var firstErr error
	next := 0
	workers := writeParallelism
	if n < workers {
		workers = n
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		k.Spawn(fmt.Sprintf("pfs-client-w%d", w), func(q *sim.Proc) {
			defer wg.Done()
			for {
				if next >= n || firstErr != nil {
					return
				}
				i := next
				next++
				if err := fn(q, i); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		})
	}
	wg.Wait(p)
	return firstErr
}

// Write stores payload at file offset off. Data moves server-directed: the
// client exposes each piece and the OST pulls it.
func (f *File) Write(p *sim.Proc, off int64, payload netsim.Payload) (int64, error) {
	pcs := f.pieces(off, payload.Size)
	ep := f.c.caller.Endpoint()
	var written int64
	err := f.parallel(p, len(pcs), func(q *sim.Proc, i int) error {
		pc := pcs[i]
		bits := portals.MatchBits(ep.NextToken())
		me := ep.Attach(clientDataPortal, bits, 0, &portals.MD{Payload: f.gather(pc, off, payload)})
		defer me.Unlink()
		v, err := f.c.caller.Call(q, pc.ost.Node, pc.ost.Port, ostWriteReq{
			Obj:        f.layout.ObjectID(pc.obj),
			Off:        pc.objOff,
			Len:        pc.length,
			Bits:       bits,
			DataPortal: clientDataPortal,
			ClientID:   f.c.id,
		}, pfsReqSize, pfsRespSize)
		if err != nil {
			return err
		}
		written += v.(int64)
		return nil
	})
	if end := off + payload.Size; end > f.size {
		f.size = end
	}
	return written, err
}

// Sync flushes every OST in the layout (fsync).
func (f *File) Sync(p *sim.Proc) error {
	return f.parallel(p, len(f.layout.OSTs), func(q *sim.Proc, i int) error {
		_, err := f.c.caller.Call(q, f.layout.OSTs[i].Node, f.layout.OSTs[i].Port, ostSyncReq{}, pfsReqSize, pfsRespSize)
		return err
	})
}

// Close reports the file size to the MDS (size is MDS metadata in this
// baseline, as in Lustre 1.x close-time size updates).
func (f *File) Close(p *sim.Proc) error {
	_, err := f.c.caller.Call(p, f.c.mds, MDSPortal, mdsSetSizeReq{Path: f.path, Size: f.size}, pfsReqSize, pfsRespSize)
	return err
}
