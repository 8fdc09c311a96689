package pfs

import (
	"fmt"

	"lwfs/internal/metrics"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
)

// MDS is the centralized metadata server: it owns the namespace and file
// layouts. Every create and open passes through it, and namespace
// mutations serialize on an internal lock — faithful to the architecture
// the paper identifies as "inherently unscalable" (§4): adding OSTs does
// not add metadata throughput.
type MDS struct {
	osts    []storage.Target
	files   map[string]*Layout
	nextIno uint64
	nsLock  *sim.Resource

	creates, opens *metrics.Counter
}

// request bodies

type mdsCreateReq struct {
	Path    string
	Stripes int // 0 = stripe over all OSTs
}

type mdsOpenReq struct{ Path string }

type mdsSetSizeReq struct {
	Path string
	Size int64
}

// StartMDS binds the metadata server at (ep, MDSPortal) with the given OST
// roster.
func StartMDS(ep *portals.Endpoint, osts []storage.Target) *MDS {
	m := &MDS{
		osts:   osts,
		files:  make(map[string]*Layout),
		nsLock: sim.NewResource(ep.Kernel(), "mds/namespace", 1),
	}
	md := ep.Metrics().Scope("pfs").Scope("mds")
	m.creates = md.Counter("creates")
	m.opens = md.Counter("opens")
	portals.ServeOps(ep, MDSPortal, "mds", mdsThreads, mdsOps, m)
	return m
}

// The MDS's operations, and its handler table.
var (
	opMDSCreate  = portals.NewOp[mdsCreateReq, Layout]()
	opMDSOpen    = portals.NewOp[mdsOpenReq, Layout]()
	opMDSSetSize = portals.NewOp[mdsSetSizeReq, struct{}]()

	mdsOps = portals.NewOps(
		portals.Handle(opMDSCreate, (*MDS).create),
		portals.Handle(opMDSOpen, (*MDS).open),
		portals.Handle(opMDSSetSize, (*MDS).setSize),
	)
)

// create is a namespace mutation: exclusive, full service cost under the
// lock.
func (m *MDS) create(p *sim.Proc, _ netsim.NodeID, r *mdsCreateReq) (Layout, error) {
	m.nsLock.Acquire(p, 1)
	p.Sleep(mdsOpCost)
	defer m.nsLock.Release(1)
	if _, ok := m.files[r.Path]; ok {
		return Layout{}, fmt.Errorf("%w: %s", ErrExists, r.Path)
	}
	stripes := r.Stripes
	if stripes <= 0 || stripes > len(m.osts) {
		stripes = len(m.osts)
	}
	m.nextIno++
	// Every layout shares the roster, which nobody modifies: the
	// capacity bound keeps an append from writing into it.
	l := &Layout{
		Inode:      m.nextIno,
		StripeUnit: stripeUnit,
		OSTs:       m.osts[:stripes:stripes],
	}
	m.files[r.Path] = l
	m.creates.Inc()
	return *l, nil
}

func (m *MDS) open(p *sim.Proc, _ netsim.NodeID, r *mdsOpenReq) (Layout, error) {
	p.Sleep(mdsOpCost)
	l, ok := m.files[r.Path]
	if !ok {
		return Layout{}, fmt.Errorf("%w: %s", ErrNotFound, r.Path)
	}
	m.opens.Inc()
	return *l, nil
}

func (m *MDS) setSize(p *sim.Proc, _ netsim.NodeID, r *mdsSetSizeReq) (struct{}, error) {
	p.Sleep(mdsOpCost / 2)
	l, ok := m.files[r.Path]
	if !ok {
		return struct{}{}, fmt.Errorf("%w: %s", ErrNotFound, r.Path)
	}
	if r.Size > l.Size {
		l.Size = r.Size
	}
	return struct{}{}, nil
}
