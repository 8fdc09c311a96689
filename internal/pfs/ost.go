package pfs

import (
	"errors"
	"fmt"

	"lwfs/internal/metrics"
	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
)

// OST is an object storage target: the baseline's per-disk data server.
// Unlike the LWFS storage server it trusts its callers completely and
// wraps every write in the distributed-lock-manager discipline: an extent
// lock per backing object, granted whole-object to the current writer, and
// revoked (with a callback round trip) whenever a different client writes.
type OST struct {
	ep        *portals.Endpoint
	dev       *osd.Device
	port      portals.Index
	chunkSize int64 // server-directed pull granularity

	locks  map[osd.ObjectID]*ostLock
	puller *portals.Puller

	lockSwitches, writesServed *metrics.Counter
}

type ostLock struct {
	res    *sim.Resource
	window *sim.Resource // read-ahead pipeline of the write holding res: two chunks, in bytes
	holder uint64        // client identity of the current extent-lock holder
}

// ost request bodies

type ostWriteReq struct {
	Obj        osd.ObjectID
	Off        int64
	Len        int64
	Bits       portals.MatchBits
	DataPortal portals.Index
	ClientID   uint64 // lock-holder identity
}

type ostSyncReq struct{}

// StartOST binds an OST over dev at (ep, port), sized like the LWFS storage
// servers cfg configures: cfg.Threads service processes and cfg.ChunkSize
// pulls.
func StartOST(ep *portals.Endpoint, dev *osd.Device, port portals.Index, cfg storage.Config) *OST {
	o := &OST{
		ep:        ep,
		dev:       dev,
		port:      port,
		chunkSize: cfg.ChunkSize,
		locks:     make(map[osd.ObjectID]*ostLock),
		puller:    portals.NewPuller(ep, dev.Name(), cfg.ChunkSize),
	}
	po := ep.Metrics().Scope("pfs").Scope(dev.Name())
	o.lockSwitches = po.Counter("lock_switches")
	o.writesServed = po.Counter("writes_served")
	portals.ServeOps(ep, port, dev.Name(), cfg.Threads, ostOps, o)
	return o
}

// Target returns the OST's address.
func (o *OST) Target() storage.Target { return storage.Target{Node: o.ep.Node(), Port: o.port} }

// ostContainer tags PFS backing objects on the shared device model.
const ostContainer osd.ContainerID = 1 << 40

// ensureObject lazily instantiates a backing object (the role of Lustre's
// precreated-object pool: creates never wait on OSTs).
func (o *OST) ensureObject(p *sim.Proc, id osd.ObjectID) error {
	if _, err := o.dev.Lookup(id); err == nil {
		return nil
	}
	if _, err := o.dev.CreateWithID(p, id, ostContainer); err != nil && !errors.Is(err, osd.ErrExists) {
		return err // ErrExists: another service thread won the race
	}
	return nil
}

func (o *OST) lockOf(id osd.ObjectID) *ostLock {
	l, ok := o.locks[id]
	if !ok {
		l = &ostLock{
			res:    sim.NewResource(o.ep.Kernel(), fmt.Sprintf("%s/dlm-%d", o.dev.Name(), id), 1),
			window: sim.NewResource(o.ep.Kernel(), o.dev.Name()+"/window", 2*o.chunkSize),
		}
		o.locks[id] = l
	}
	return l
}

// The OST's operations, and its handler table.
var (
	opOSTWrite = portals.NewOp[ostWriteReq, int64]()
	opOSTSync  = portals.NewOp[ostSyncReq, struct{}]()

	ostOps = portals.NewOps(
		portals.Handle(opOSTWrite, (*OST).write),
		portals.Handle(opOSTSync, func(o *OST, p *sim.Proc, _ netsim.NodeID, _ *ostSyncReq) (struct{}, error) {
			o.dev.Sync(p)
			return struct{}{}, nil
		}),
	)
)

// write services one striped write under the DLM discipline. For a
// single-writer object the lock is a formality (same holder, no contention,
// and the object's requests arrive one at a time anyway). For a shared
// object the lock both serializes service — forfeiting pull/disk overlap —
// and charges a revocation callback whenever the writing client changes.
// A byte range storage.CheckRange refuses is answered before the object
// or its lock is touched.
func (o *OST) write(p *sim.Proc, from netsim.NodeID, r *ostWriteReq) (int64, error) {
	if err := storage.CheckRange(r.Off, r.Len); err != nil {
		return 0, err
	}
	if err := o.ensureObject(p, r.Obj); err != nil {
		return 0, err
	}
	l := o.lockOf(r.Obj)
	l.res.Acquire(p, 1)
	defer l.res.Release(1)
	p.Sleep(lockOpCost)
	if l.holder != r.ClientID {
		if l.holder != 0 {
			// Revoke the previous holder's cached extent lock: a blocking
			// callback round trip, client-side lock cancellation and page
			// invalidation, and a flush barrier on the object's dirty
			// state before the new grant is safe.
			p.Sleep(revokeCost + 2*o.ep.Network().Latency())
			o.dev.Sync(p)
			o.lockSwitches.Inc()
		}
		l.holder = r.ClientID
	}
	// Pull the data server-directed with a read-ahead pipeline, writing
	// through to disk as chunks land (portals.Puller.Pull, storage's loop).
	// Within one bulk RPC the network pull of chunk i+1 overlaps the disk
	// write of chunk i — this is why a single-writer file matches LWFS
	// bandwidth. A shared file never gets here with large extents: its writers
	// arrive one stripe unit at a time (see Client.write), each under the lock
	// discipline above.
	written, err := o.puller.Pull(p, from, r.DataPortal, r.Bits, r.Len, l.window,
		func(q *sim.Proc, off int64, chunk netsim.Payload) error {
			return o.dev.Write(q, r.Obj, r.Off+off, chunk)
		})
	if err != nil {
		return written, err
	}
	o.writesServed.Inc()
	return written, nil
}
