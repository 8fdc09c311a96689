package storage

import (
	"cmp"

	"lwfs/internal/authz"
	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
)

// Third-party transfer: the destination storage server pulls object data
// *directly from the source storage server*, so a redistribution moves
// every byte across the network once instead of twice through a client.
//
// This falls out of the paper's security architecture rather than fighting
// it: capabilities are fully transferable (§3.1.2), so a client can hand
// the destination server a read capability for the source container, and
// the source server verifies it exactly as it would verify a client's —
// servers hold no special trust (Figure 5), they are just another
// capability holder here.

// copyReq asks the receiving server to pull [SrcOff, SrcOff+Len) of the
// source object into (DstID, DstOff) on its own device.
type copyReq struct {
	DstCap authz.Capability // OpWrite on the destination container
	DstID  osd.ObjectID
	DstOff int64

	Src    ObjRef
	SrcCap authz.Capability // OpRead on the source container (transferred)
	SrcOff int64
	Len    int64
}

// serveCopy handles a third-party transfer on the destination server. It
// checks the write capability; the source server checks the read capability
// when we call it. The remote read of chunk i+1 overlaps the local disk write
// of chunk i (double buffering), so the copy runs at the slower of the two
// disks, not their sum. Its readers are done with r once their last chunk is
// sent, before serveCopy returns.
func (s *Server) serveCopy(p *sim.Proc, _ netsim.NodeID, r *copyReq) (int64, error) {
	bad := cmp.Or(CheckRange(r.DstOff, r.Len), CheckRange(r.SrcOff, r.Len))
	if err := s.admitObj(p, &r.DstCap, authz.OpWrite, r.DstID, bad); err != nil {
		return 0, err
	}
	// The server acts as a storage client of the source server, reusing
	// the node's endpoint (and the server-directed read path: the source
	// pushes chunks straight into this node).
	sc := NewClient(portals.NewCaller(s.ep))
	k := p.Kernel()
	chunks := sim.NewMailbox(k, s.dev.Name()+"/copy")
	nchunks := int((r.Len + s.cfg.ChunkSize - 1) / s.cfg.ChunkSize)
	// Strided readers keep several remote reads in flight (bounding the
	// staging memory to readers × ChunkSize); the drain loop below streams
	// chunks to the local disk as they land.
	readers := 4
	if nchunks < readers {
		readers = nchunks
	}
	for w := 0; w < readers; w++ {
		w := w
		k.Spawn(s.dev.Name()+"/copier", func(q *sim.Proc) {
			failed := false
			for i := w; i < nchunks; i += readers {
				off := int64(i) * s.cfg.ChunkSize
				n := s.cfg.ChunkSize
				if off+n > r.Len {
					n = r.Len - off
				}
				if failed {
					// A message per assigned chunk keeps the drain count
					// exact; after a failure the rest are empty markers.
					chunks.Send(pulledChunk{off: off})
					continue
				}
				payload, err := sc.Read(q, r.Src, r.SrcCap, r.SrcOff+off, n)
				chunks.Send(pulledChunk{off: off, payload: payload, err: err})
				if err != nil {
					failed = true
				}
			}
		})
	}
	var copied int64
	var firstErr error
	for i := 0; i < nchunks; i++ {
		c := chunks.Recv(p).(pulledChunk)
		if c.err != nil && firstErr == nil {
			firstErr = c.err
		}
		if firstErr != nil || c.payload.Size == 0 {
			continue // error, EOF hole, or post-failure marker
		}
		if err := s.dev.Write(p, r.DstID, r.DstOff+c.off, c.payload); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		copied += c.payload.Size
	}
	return copied, firstErr
}

// Copy performs a third-party transfer: the destination server (named by
// dst) pulls [srcOff, srcOff+length) of src directly from the source
// server into (dst, dstOff). dstCap must authorize OpWrite on dst's
// container; srcCap must authorize OpRead on src's container. It returns
// the bytes copied (short if the source range runs past EOF).
func (c *Client) Copy(p *sim.Proc, dst ObjRef, dstCap authz.Capability, dstOff int64,
	src ObjRef, srcCap authz.Capability, srcOff, length int64) (int64, error) {
	return portals.Invoke(c.ep, p, dst.Node, dst.Port, opCopy, &copyReq{
		DstCap: dstCap, DstID: dst.ID, DstOff: dstOff,
		Src: src, SrcCap: srcCap, SrcOff: srcOff, Len: length,
	}, reqWireSize+authz.CapWireSize, respWireSize)
}
