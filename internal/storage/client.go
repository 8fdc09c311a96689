package storage

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"lwfs/internal/authz"
	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/txn"
)

// Wire sizes (bytes) for storage requests and responses, excluding bulk data.
const (
	reqWireSize  = 256
	respWireSize = 64
)

// errChunksLost marks a read whose response arrived but whose data chunks
// were (partly) dropped on the wire; the retry loop re-reads.
var errChunksLost = errors.New("storage: data chunks lost in flight")

// Client issues storage requests from one node. Data-transfer match bits
// come from the endpoint's shared token space, so several client processes
// can share a node.
type Client struct {
	ep  *portals.Caller
	rng *sim.Rand
}

// NewClient creates a storage client sending from caller's endpoint.
func NewClient(caller *portals.Caller) *Client { return &Client{ep: caller} }

func (c *Client) bits() portals.MatchBits {
	return portals.MatchBits(c.ep.Endpoint().NextToken())
}

// Target names a storage server: a node and RPC portal pair.
type Target struct {
	Node netsim.NodeID
	Port portals.Index
}

// TargetOf extracts the server half of an ObjRef.
func TargetOf(ref ObjRef) Target { return Target{Node: ref.Node, Port: ref.Port} }

// Holds reports whether one of refs sits on t.
func Holds(refs []ObjRef, t Target) bool {
	return slices.ContainsFunc(refs, func(r ObjRef) bool { return TargetOf(r) == t })
}

// TxnEndpointOf is the transaction participant of the server at t: it
// listens two portals above the server's RPC port (PortalStride).
func TxnEndpointOf(t Target) txn.Endpoint {
	return txn.Endpoint{Node: t.Node, Port: t.Port + 2}
}

// Create allocates a new object in container cid on the target server.
// Requires an OpCreate capability for the container.
func (c *Client) Create(p *sim.Proc, t Target, cap authz.Capability, cid authz.ContainerID) (ObjRef, error) {
	return c.CreateTxn(p, t, cap, cid, 0)
}

// CreateTxn is Create inside a distributed transaction: the object is
// removed again if the transaction aborts. The caller must also enlist the
// server's TxnEndpoint with the coordinator.
func (c *Client) CreateTxn(p *sim.Proc, t Target, cap authz.Capability, cid authz.ContainerID, id txn.ID) (ObjRef, error) {
	return portals.Invoke(c.ep, p, t.Node, t.Port, opCreate, &createReq{Cap: cap, Container: cid, Txn: id}, reqWireSize, respWireSize)
}

// Write stores payload at offset off of the referenced object using the
// server-directed protocol: the data is exposed locally and the server
// pulls it. Requires an OpWrite capability. It returns the bytes written.
func (c *Client) Write(p *sim.Proc, ref ObjRef, cap authz.Capability, off int64, payload netsim.Payload) (int64, error) {
	bits := c.bits()
	slot := c.ep.Endpoint().Expose(ClientDataPortal, bits, payload)
	defer slot.Close()
	return portals.Invoke(c.ep, p, ref.Node, ref.Port, opWrite, &writeReq{
		Cap:        cap,
		ID:         ref.ID,
		Off:        off,
		Len:        payload.Size,
		Bits:       bits,
		DataPortal: ClientDataPortal,
	}, reqWireSize, respWireSize)
}

// Read fetches [off, off+length) of the referenced object. The server
// pushes the data into a posted receive buffer; Read reassembles it.
// Requires an OpRead capability. Short reads at end-of-object return the
// available bytes. A reply whose chunks are consecutive parts of one seeded
// run (osd.Blob.Read) is returned as that run, without bytes.
//
// Reads retry differently from every other request: a retried read must
// NOT be deduplicated at the server (the whole point is re-pushing the data
// chunks), and each attempt needs fresh match bits so stale chunks from a
// timed-out attempt can never land in the new attempt's buffer. So when the
// caller has a retry policy, Read runs its own attempt loop over
// single-shot InvokeTimeout instead of the caller's dedup-backed retry.
func (c *Client) Read(p *sim.Proc, ref ObjRef, cap authz.Capability, off, length int64) (netsim.Payload, error) {
	pol := c.ep.Retry()
	if !pol.Enabled() {
		return c.readOnce(p, ref, cap, off, length, 0)
	}
	if c.rng == nil {
		c.rng = sim.NewRand(int64(c.ep.Endpoint().Node()))
	}
	var lastErr error
	for a := 0; a < pol.MaxAttempts; a++ {
		if a > 0 {
			p.Sleep(pol.Pause(a-1, c.rng))
		}
		payload, err := c.readOnce(p, ref, cap, off, length, pol.Timeout)
		if !portals.FailStop(err) && !errors.Is(err, errChunksLost) {
			return payload, err
		}
		lastErr = err
	}
	return netsim.Payload{}, lastErr
}

func (c *Client) readOnce(p *sim.Proc, ref ObjRef, cap authz.Capability, off, length int64, timeout time.Duration) (netsim.Payload, error) {
	bits := c.bits()
	data := c.ep.Endpoint().Post(ClientDataPortal, bits, false)
	defer data.Close()
	// One attempt: without a retry policy (timeout 0) that is all Invoke
	// would make.
	resp, err := portals.InvokeTimeout(c.ep, p, ref.Node, ref.Port, opRead, &readReq{
		Cap:        cap,
		ID:         ref.ID,
		Off:        off,
		Len:        length,
		Bits:       bits,
		DataPortal: ClientDataPortal,
	}, reqWireSize, respWireSize, timeout)
	if err != nil {
		return netsim.Payload{}, err
	}
	// All data Puts preceded the response through the same FIFO network
	// path, so exactly resp.Chunks events are already queued — unless fault
	// injection dropped one, which the retry loop treats as retryable.
	if data.Len() != resp.Chunks {
		return netsim.Payload{}, fmt.Errorf("%w: expected %d chunks, have %d", errChunksLost, resp.Chunks, data.Len())
	}
	return assemble(p, data, resp), nil
}

// assemble reads a reply's chunks off its slot and joins them into one
// payload (netsim.Joiner): their seeded run, a buffer of their bytes, or a
// synthetic payload. It stays out of line, so that its payload temporaries
// stay off the stack of every reader parked in its call.
//
//go:noinline
func assemble(p *sim.Proc, data *portals.Slot, resp readResp) netsim.Payload {
	j := netsim.Joiner{Size: resp.Len}
	for i := 0; i < resp.Chunks; i++ {
		ev, _ := data.Wait(p, 0)
		j.Add(*chunkAt.Of(ev), ev.Payload)
		ev.Release()
	}
	return j.Payload()
}

// Truncate sets the object's logical size. Requires an OpWrite capability.
func (c *Client) Truncate(p *sim.Proc, ref ObjRef, cap authz.Capability, size int64) error {
	_, err := portals.Invoke(c.ep, p, ref.Node, ref.Port, opTruncate, &truncateReq{Cap: cap, ID: ref.ID, Size: size}, reqWireSize, respWireSize)
	return err
}

// Remove deletes the referenced object. Requires an OpRemove capability.
func (c *Client) Remove(p *sim.Proc, ref ObjRef, cap authz.Capability) error {
	_, err := portals.Invoke(c.ep, p, ref.Node, ref.Port, opRemove, &removeReq{Cap: cap, ID: ref.ID}, reqWireSize, respWireSize)
	return err
}

// Stat returns object metadata. Requires an OpRead or OpList capability.
func (c *Client) Stat(p *sim.Proc, ref ObjRef, cap authz.Capability) (osd.Stat, error) {
	return portals.Invoke(c.ep, p, ref.Node, ref.Port, opStat, &statReq{Cap: cap, ID: ref.ID}, reqWireSize, respWireSize)
}

// List enumerates the objects of container cid on the target server.
// Requires an OpList capability.
func (c *Client) List(p *sim.Proc, t Target, cap authz.Capability, cid authz.ContainerID) ([]osd.ObjectID, error) {
	return portals.Invoke(c.ep, p, t.Node, t.Port, opList, &listReq{Cap: cap, Container: cid}, reqWireSize, 1024)
}

// Sync flushes the target server's device; when it returns, every previous
// write on that server is durable. Any valid capability authorizes it.
func (c *Client) Sync(p *sim.Proc, t Target, cap authz.Capability) error {
	_, err := portals.Invoke(c.ep, p, t.Node, t.Port, opSync, &syncReq{Cap: cap}, reqWireSize, respWireSize)
	return err
}

// SetAttr sets a named attribute on an object. Requires OpWrite.
func (c *Client) SetAttr(p *sim.Proc, ref ObjRef, cap authz.Capability, key, value string) error {
	_, err := portals.Invoke(c.ep, p, ref.Node, ref.Port, opSetAttr, &setAttrReq{Cap: cap, ID: ref.ID, Key: key, Value: value},
		reqWireSize+int64(len(key)+len(value)), respWireSize)
	return err
}

// GetAttr reads a named attribute. Requires OpRead.
func (c *Client) GetAttr(p *sim.Proc, ref ObjRef, cap authz.Capability, key string) (string, error) {
	return portals.Invoke(c.ep, p, ref.Node, ref.Port, opGetAttr, &getAttrReq{Cap: cap, ID: ref.ID, Key: key},
		reqWireSize+int64(len(key)), 256)
}
