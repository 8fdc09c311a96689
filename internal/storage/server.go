// Package storage implements the LWFS storage service (paper §3.2–3.3):
// object-based storage servers that enforce the authorization service's
// access-control policies and move bulk data under *server* control.
//
// Data movement follows Figure 6. A client never streams data at a server:
//
//   - For a write, the client exposes its buffer through a portals match
//     entry and sends a small request describing it. The server pulls the
//     data with one-sided Gets, chunk by chunk, at its own pace, bounded by
//     its pinned buffer pool — a burst of ten thousand requests costs the
//     server ten thousand queue entries, not ten thousand buffers.
//   - For a read, the server pushes data into the client's posted receive
//     buffer with one-sided Puts.
//
// Every request carries a capability. The server checks its capability
// cache; on a miss it verifies with the authorization service, which
// records the back pointer used for revocation callbacks (§3.1.2, Figure
// 4b). The server never learns the authorization service's signing key, so
// a compromised storage server can replay previously authorized
// capabilities at worst — it cannot mint new ones.
package storage

import (
	"fmt"
	"io/fs"
	"math"
	"time"

	"lwfs/internal/authz"
	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/portals"
	"lwfs/internal/qos"
	"lwfs/internal/sim"
	"lwfs/internal/txn"
)

// Well-known portal indexes. A node hosting several storage servers (the
// paper's dev cluster ran two per storage node) spaces them with PortalStride.
const (
	// DefaultRPCPort receives storage requests.
	DefaultRPCPort portals.Index = 20
	// PortalStride separates co-located servers' portal triples: port+1
	// receives capability-cache invalidation callbacks, port+2 two-phase-commit
	// traffic for the server's transaction participant.
	PortalStride = 4
	// ClientDataPortal is where clients expose write buffers and post read
	// buffers; match bits select the transfer.
	ClientDataPortal portals.Index = 19
)

// ObjRef names an object globally: the storage server holding it and the
// device-local object ID. Higher layers (naming, checkpoint metadata) store
// ObjRefs; the LWFS core never interprets them.
type ObjRef struct {
	Node netsim.NodeID
	Port portals.Index // the server's RPC portal
	ID   osd.ObjectID
}

// OpCost is the CPU cost to parse and dispatch a request (DESIGN.md §7).
const OpCost = 20 * time.Microsecond

// Config tunes a storage server.
type Config struct {
	Threads      int   // concurrent request service processes
	ChunkSize    int64 // bulk-transfer granularity
	PinnedBuffer int64 // pull-buffer pool bound, bytes
	// DisableCapCache turns off verification caching (every request takes
	// an authorization-service round trip) — the ablation knob for the
	// §3.1.2 amortization argument.
	DisableCapCache bool
	// QoS, when non-nil, installs a per-tenant admission controller in
	// front of the request portal (fair-share scheduling, rate caps,
	// bounded queue with explicit overload shed). nil = FIFO, unbounded.
	QoS *qos.Config
}

// DefaultConfig returns the calibrated defaults.
func DefaultConfig() Config {
	return Config{
		Threads:      4,
		ChunkSize:    1 << 20,
		PinnedBuffer: 8 << 20,
	}
}

// Server is one LWFS storage server: an RPC front end over an object-based
// storage device.
type Server struct {
	ep      *portals.Endpoint
	dev     *osd.Device
	az      *authz.Client
	cfg     Config
	rpcPort portals.Index
	bufPool *sim.Resource
	puller  *portals.Puller

	caps    authz.CapCache
	part    *txn.Participant
	filters map[string]FilterFunc
	adm     *qos.Admission
	rpc     *portals.Server
}

// Start binds a storage server to ep's node at the given RPC portal, with
// its cache-invalidation portal immediately above. The device holds the
// data; az verifies capabilities.
func Start(ep *portals.Endpoint, dev *osd.Device, az *authz.Client, rpcPort portals.Index, cfg Config) *Server {
	if cfg.Threads <= 0 || cfg.ChunkSize <= 0 || cfg.PinnedBuffer < cfg.ChunkSize {
		panic(fmt.Sprintf("storage: bad config %+v", cfg))
	}
	s := &Server{
		ep:      ep,
		dev:     dev,
		az:      az,
		cfg:     cfg,
		rpcPort: rpcPort,
		bufPool: sim.NewResource(ep.Kernel(), fmt.Sprintf("%s/pinned", dev.Name()), cfg.PinnedBuffer),
		puller:  portals.NewPuller(ep, dev.Name(), cfg.ChunkSize),
	}
	s.rpc = portals.ServeOps(ep, s.rpcPort, dev.Name(), cfg.Threads, serverOps, s) //qos:admitted
	if cfg.QoS != nil {
		s.adm = qos.NewAdmission(ep.Kernel(), ep.Metrics().Scope("qos").Scope(dev.Name()), *cfg.QoS)
		s.rpc.SetDispatcher(s.adm)
	}
	s.caps.Serve(ep, az, rpcPort+1, dev.Name(),
		ep.Metrics().Scope("storage").Scope(dev.Name()).Scope("cap_cache"), cfg.DisableCapCache)
	s.part = txn.NewParticipant(ep, dev, TxnEndpointOf(Target{Node: ep.Node(), Port: rpcPort}).Port)
	return s
}

// Admission exposes the server's admission controller (nil without
// Config.QoS) — tests inspect its queue through it.
func (s *Server) Admission() *qos.Admission { return s.adm }

// Crash fail-stops the server process: in-flight requests die unanswered,
// queued requests are discarded, and all volatile state is lost — the
// capability cache and the transaction participant's in-memory statuses.
// Durable state (objects, the journal) survives on the device.
func (s *Server) Crash() {
	s.rpc.SetDown(true)
	s.caps.Crash()
	s.part.Crash()
}

// Restart brings a crashed server back: the RPC ports answer again and the
// transaction journal is replayed (Recover), removing objects created by
// transactions that resolved to aborted. It returns the orphan count.
// Capabilities must be re-verified on first use — the cache restarts cold.
func (s *Server) Restart(p *sim.Proc) (removed int, err error) {
	s.rpc.SetDown(false)
	s.caps.Restart()
	s.part.Restart()
	return s.Recover(p)
}

// Down reports whether the server is crashed.
func (s *Server) Down() bool { return s.rpc.Down() }

// TxnEndpoint returns the participant endpoint clients enlist for
// transactional object creation on this server.
func (s *Server) TxnEndpoint() txn.Endpoint {
	return TxnEndpointOf(Target{Node: s.Node(), Port: s.rpcPort})
}

// Participant exposes the server's transaction participant (tests, recovery).
func (s *Server) Participant() *txn.Participant { return s.part }

// Recover replays the device's transaction journal after a crash/restart
// (txn.Participant.Recover): the objects that the "created" records of
// aborted transactions name are removed. A transaction still in doubt —
// prepared, its decision site unreachable — keeps its objects until the
// site answers, and is removed then if it aborted. It returns the number of
// orphaned objects cleaned up. Call it from a service process before
// serving.
func (s *Server) Recover(p *sim.Proc) (removed int, err error) {
	recs, outcomes, err := s.part.Recover(p)
	if err != nil {
		return 0, err
	}
	// Register the in-doubt undos before anything blocks, so the
	// participant's daemon cannot resolve a transaction ahead of them.
	for _, rec := range recs {
		if id, ok := createdObj(rec); ok && outcomes[rec.Txn] == txn.StatusPrepared {
			s.part.OnAbort(rec.Txn, func(q *sim.Proc) {
				s.dev.Remove(q, id) //nolint:errcheck // already gone is fine
			})
		}
	}
	for _, rec := range recs {
		if id, ok := createdObj(rec); ok && outcomes[rec.Txn] == txn.StatusAborted {
			if err := s.dev.Remove(p, id); err == nil {
				removed++
			}
		}
	}
	return removed, nil
}

// createdObj is the object a "created" journal record names.
func createdObj(rec txn.JournalRecord) (osd.ObjectID, bool) {
	var id uint64
	if rec.Kind != "created" {
		return 0, false
	}
	if _, err := fmt.Sscanf(rec.Detail, "obj=%d", &id); err != nil {
		return 0, false
	}
	return osd.ObjectID(id), true
}

// Node returns the node the server runs on.
func (s *Server) Node() netsim.NodeID { return s.ep.Node() }

// RPCPort returns the server's request portal.
func (s *Server) RPCPort() portals.Index { return s.rpcPort }

// Ref builds an ObjRef for an object on this server.
func (s *Server) Ref(id osd.ObjectID) ObjRef {
	return ObjRef{Node: s.Node(), Port: s.rpcPort, ID: id}
}

// Device exposes the underlying device (used by transaction participants
// and by tests).
func (s *Server) Device() *osd.Device { return s.dev }

// AuthzClient exposes the server's authorization-service client, so fault
// harnesses can arm its caller with a retry policy.
func (s *Server) AuthzClient() *authz.Client { return s.az }

// request bodies

type createReq struct {
	Cap       authz.Capability
	Container authz.ContainerID
	Txn       txn.ID // non-zero: provisional create inside a transaction
}

type writeReq struct {
	Cap        authz.Capability
	ID         osd.ObjectID
	Off        int64
	Len        int64
	Bits       portals.MatchBits // where the client's buffer is matched
	DataPortal portals.Index
}

type readReq struct {
	Cap        authz.Capability
	ID         osd.ObjectID
	Off        int64
	Len        int64
	Bits       portals.MatchBits // where to push the data
	DataPortal portals.Index
}

type readResp struct {
	Len    int64
	Chunks int
}

type removeReq struct {
	Cap authz.Capability
	ID  osd.ObjectID
}

type truncateReq struct {
	Cap  authz.Capability
	ID   osd.ObjectID
	Size int64
}

type statReq struct {
	Cap authz.Capability
	ID  osd.ObjectID
}

type listReq struct {
	Cap       authz.Capability
	Container authz.ContainerID
}

type syncReq struct {
	Cap authz.Capability
}

type setAttrReq struct {
	Cap        authz.Capability
	ID         osd.ObjectID
	Key, Value string
}

type getAttrReq struct {
	Cap authz.Capability
	ID  osd.ObjectID
	Key string
}

// CheckRange refuses a byte range no object can have: a negative offset or
// length, or an end past math.MaxInt64. Servers check it before the
// capability, so a bad range reaches neither a verification nor a pull.
func CheckRange(off, n int64) error {
	if off < 0 || n < 0 || off > math.MaxInt64-n {
		return fmt.Errorf("byte range of %d bytes at offset %d: %w", n, off, fs.ErrInvalid)
	}
	return nil
}

// The storage service's operations, and its handler table.
var (
	opCreate   = portals.NewOp[createReq, ObjRef]()
	opWrite    = portals.NewOp[writeReq, int64]()
	opRead     = portals.NewOp[readReq, readResp]()
	opRemove   = portals.NewOp[removeReq, struct{}]()
	opTruncate = portals.NewOp[truncateReq, struct{}]()
	opStat     = portals.NewOp[statReq, osd.Stat]()
	opList     = portals.NewOp[listReq, []osd.ObjectID]()
	opSync     = portals.NewOp[syncReq, struct{}]()
	opSetAttr  = portals.NewOp[setAttrReq, struct{}]()
	opGetAttr  = portals.NewOp[getAttrReq, string]()
	opCopy     = portals.NewOp[copyReq, int64]()
	opFilter   = portals.NewOp[filterReq, []byte]()

	serverOps = portals.NewOps(
		portals.Handle(opCreate, (*Server).create),
		portals.Handle(opWrite, (*Server).pullWrite),
		portals.Handle(opRead, (*Server).pushRead),
		portals.Handle(opRemove, (*Server).remove),
		portals.Handle(opTruncate, (*Server).truncate),
		portals.Handle(opStat, (*Server).stat),
		portals.Handle(opList, (*Server).list),
		portals.Handle(opSync, (*Server).sync),
		portals.Handle(opSetAttr, (*Server).setAttr),
		portals.Handle(opGetAttr, (*Server).getAttr),
		portals.Handle(opCopy, (*Server).serveCopy),
		portals.Handle(opFilter, (*Server).runFilter),
	)
)

// admit is the admission rule of a request that names its container: its
// parse cost, then the capability check.
func (s *Server) admit(p *sim.Proc, c *authz.Capability, op authz.Op, cid authz.ContainerID) error {
	p.Sleep(OpCost)
	return s.caps.Admit(p, c, op, cid)
}

// admitObj is admit for a request on object id, checked against the
// object's container, looked up here so that a request for a missing object
// answers osd.ErrNoObject. A byte range or truncate size CheckRange refused
// (bad) is answered first, so it reaches neither a lookup nor a
// verification.
func (s *Server) admitObj(p *sim.Proc, c *authz.Capability, op authz.Op, id osd.ObjectID, bad error) error {
	p.Sleep(OpCost)
	if bad != nil {
		return fmt.Errorf("storage: %w", bad)
	}
	st, err := s.dev.Stat(id)
	if err != nil {
		return err
	}
	return s.caps.Admit(p, c, op, authz.ContainerID(st.Container))
}

func (s *Server) create(p *sim.Proc, _ netsim.NodeID, r *createReq) (ObjRef, error) {
	if err := s.admit(p, &r.Cap, authz.OpCreate, r.Container); err != nil {
		return ObjRef{}, err
	}
	if r.Txn != 0 {
		// Write-ahead: log the intent before allocating, so recovery
		// after a crash can resolve the create via the journal.
		if err := s.part.Log(p, txn.JournalRecord{Txn: r.Txn, Kind: "create",
			Detail: fmt.Sprintf("container=%d", r.Container)}); err != nil {
			return ObjRef{}, err
		}
	}
	obj := s.dev.Create(p, osd.ContainerID(r.Container))
	if r.Txn != 0 {
		id := obj.ID
		// Second journal record binds the allocated ID to the
		// transaction, so crash recovery can find the orphan.
		if err := s.part.Log(p, txn.JournalRecord{Txn: r.Txn, Kind: "created",
			Detail: fmt.Sprintf("obj=%d", uint64(id))}); err != nil {
			return ObjRef{}, err
		}
		s.part.OnAbort(r.Txn, func(q *sim.Proc) {
			s.dev.Remove(q, id) //nolint:errcheck // already gone is fine
		})
	}
	return s.Ref(obj.ID), nil
}

func (s *Server) remove(p *sim.Proc, _ netsim.NodeID, r *removeReq) (struct{}, error) {
	if err := s.admitObj(p, &r.Cap, authz.OpRemove, r.ID, nil); err != nil {
		return struct{}{}, err
	}
	return struct{}{}, s.dev.Remove(p, r.ID)
}

func (s *Server) truncate(p *sim.Proc, _ netsim.NodeID, r *truncateReq) (struct{}, error) {
	if err := s.admitObj(p, &r.Cap, authz.OpWrite, r.ID, CheckRange(r.Size, 0)); err != nil {
		return struct{}{}, err
	}
	return struct{}{}, s.dev.Truncate(p, r.ID, r.Size)
}

// stat needs a read or list capability; any other is refused as the wrong
// operation before it costs a verification.
func (s *Server) stat(p *sim.Proc, _ netsim.NodeID, r *statReq) (osd.Stat, error) {
	op := authz.OpRead
	if r.Cap.Op == authz.OpList {
		op = authz.OpList
	}
	if err := s.admitObj(p, &r.Cap, op, r.ID, nil); err != nil {
		return osd.Stat{}, err
	}
	return s.dev.Stat(r.ID)
}

func (s *Server) list(p *sim.Proc, _ netsim.NodeID, r *listReq) ([]osd.ObjectID, error) {
	if err := s.admit(p, &r.Cap, authz.OpList, r.Container); err != nil {
		return nil, err
	}
	return s.dev.ListContainer(osd.ContainerID(r.Container)), nil
}

// sync has no container scope: any valid capability for any operation
// entitles the holder to flush the device.
func (s *Server) sync(p *sim.Proc, _ netsim.NodeID, r *syncReq) (struct{}, error) {
	if err := s.admit(p, &r.Cap, r.Cap.Op, r.Cap.Container); err != nil {
		return struct{}{}, err
	}
	s.dev.Sync(p)
	return struct{}{}, nil
}

func (s *Server) setAttr(p *sim.Proc, _ netsim.NodeID, r *setAttrReq) (struct{}, error) {
	if err := s.admitObj(p, &r.Cap, authz.OpWrite, r.ID, nil); err != nil {
		return struct{}{}, err
	}
	return struct{}{}, s.dev.SetAttr(p, r.ID, r.Key, r.Value)
}

func (s *Server) getAttr(p *sim.Proc, _ netsim.NodeID, r *getAttrReq) (string, error) {
	if err := s.admitObj(p, &r.Cap, authz.OpRead, r.ID, nil); err != nil {
		return "", err
	}
	return s.dev.GetAttr(r.ID, r.Key)
}

// pulledChunk is one chunk of a third-party copy in flight (copy.go).
type pulledChunk struct {
	off     int64
	payload netsim.Payload
	err     error
}

// pullWrite implements the server-directed write of Figure 6: the server
// pulls the client's data in ChunkSize pieces, double-buffered against the
// pinned pool so the network pull of chunk i+1 overlaps the disk write of
// chunk i. The loop is portals.Puller.Pull, shared with burst and pfs.
func (s *Server) pullWrite(p *sim.Proc, from netsim.NodeID, r *writeReq) (int64, error) {
	if err := s.admitObj(p, &r.Cap, authz.OpWrite, r.ID, CheckRange(r.Off, r.Len)); err != nil {
		return 0, err
	}
	return s.puller.Pull(p, from, r.DataPortal, r.Bits, r.Len, s.bufPool,
		func(q *sim.Proc, off int64, chunk netsim.Payload) error {
			return s.dev.Write(q, r.ID, r.Off+off, chunk)
		})
}

// chunkAt is the header of a pushed read chunk: its offset in the reply.
var chunkAt = portals.NewHeader[int64]()

// pushRead implements the server-directed read: the server reads the disk
// chunk by chunk and pushes each chunk into the client's posted buffer with
// a one-sided Put. The RPC response follows the last Put through the same
// FIFO path, so when the client sees the response, all data has landed.
func (s *Server) pushRead(p *sim.Proc, from netsim.NodeID, r *readReq) (readResp, error) {
	if err := s.admitObj(p, &r.Cap, authz.OpRead, r.ID, CheckRange(r.Off, r.Len)); err != nil {
		return readResp{}, err
	}
	chunksSent := 0
	length, err := s.readChunks(p, r.ID, r.Off, r.Len, func(at int64, chunk netsim.Payload) {
		chunkAt.Put(s.ep, from, r.DataPortal, r.Bits, &at, chunk)
		chunksSent++
	})
	if err != nil {
		return readResp{}, err
	}
	return readResp{Len: length, Chunks: chunksSent}, nil
}

// readChunks is the server-side read walk: it clamps [off, off+length) to
// the object's size and reads what is left off the device ChunkSize at a
// time, handing emit each chunk with its offset inside the clamped range.
// It returns the clamped length.
func (s *Server) readChunks(p *sim.Proc, id osd.ObjectID, off, length int64, emit func(at int64, chunk netsim.Payload)) (int64, error) {
	st, err := s.dev.Stat(id)
	if err != nil {
		return 0, err
	}
	if off >= st.Size {
		length = 0
	} else if off+length > st.Size {
		length = st.Size - off
	}
	for at := int64(0); at < length; at += s.cfg.ChunkSize {
		chunk, err := s.dev.Read(p, id, off+at, min(s.cfg.ChunkSize, length-at))
		if err != nil {
			return 0, err
		}
		emit(at, chunk)
	}
	return length, nil
}
