package burst

import (
	"time"

	"lwfs/internal/authz"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
)

// Wire sizes (bytes) for burst requests and responses, excluding bulk data.
const (
	reqWireSize  = 256
	respWireSize = 64
	refWireSize  = 24 // one ObjRef inside a drain-wait request
)

// Client issues staging requests from one node. It shares the caller's
// retry policy: a retried StageWrite is deduplicated server-side, so
// staging stays exactly-once even on a lossy fabric.
type Client struct {
	caller *portals.Caller
}

// NewClient creates a burst client sending through caller.
func NewClient(caller *portals.Caller) *Client { return &Client{caller: caller} }

// StageWrite hands [off, off+len) of the destination object to the burst
// buffer using the server-directed protocol: the payload is exposed
// locally and the buffer pulls it. The call returns as soon as the buffer
// holds the data (write-behind), or — when the staging window is full —
// after the buffer has relayed it synchronously to storage (staged=false).
// Requires an OpWrite capability for the destination's container.
func (c *Client) StageWrite(p *sim.Proc, t Target, ref storage.ObjRef, cap authz.Capability, off int64, payload netsim.Payload) (staged bool, err error) {
	ep := c.caller.Endpoint()
	bits := portals.MatchBits(ep.NextToken())
	slot := ep.Expose(storage.ClientDataPortal, bits, payload)
	defer slot.Close()
	v, err := portals.Invoke(c.caller, p, t.Node, t.Port, opStage, &stageReq{
		Cap:        cap,
		Ref:        ref,
		Off:        off,
		Len:        payload.Size,
		Bits:       bits,
		DataPortal: storage.ClientDataPortal,
	}, reqWireSize, respWireSize)
	return v.Staged, err
}

// DrainWait blocks until every listed object's staged extents are durable
// on the backing store. A positive timeout bounds the wait with a single
// attempt (a crashed buffer then surfaces as ErrRPCTimeout rather than a
// hang); zero waits indefinitely. It fails with ErrLost when the buffer
// cannot vouch for an extent (crash after staging) and ErrDrainFailed when
// a drain exhausted its retries — in every failure case the caller must
// treat the covered data as not durable.
func (c *Client) DrainWait(p *sim.Proc, t Target, refs []storage.ObjRef, timeout time.Duration) error {
	size := int64(respWireSize + refWireSize*len(refs))
	// Always a single attempt (InvokeTimeout), never the caller's retry loop:
	// a drain legitimately takes longer than any per-attempt RPC deadline,
	// and the wait portal's handler blocks until done, so retrying would
	// only tie up wait threads. timeout <= 0 waits indefinitely.
	_, err := portals.InvokeTimeout(c.caller, p, t.Node, t.Port+2, opDrainWait, &drainWaitReq{Refs: refs}, size, respWireSize, timeout)
	return err
}
