package txn

import (
	"errors"
	"time"

	"lwfs/internal/metrics"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
)

// The lock service gives clients the isolation half of §3.4: named
// shared/exclusive locks with FIFO granting. The LWFS-core imposes no lock
// usage anywhere — applications that know their writes are non-overlapping
// (checkpoints) never touch it; a POSIX-style file system layered on the
// core (internal/lwfspfs) uses it for every conflicting access.
//
// The server is event-driven rather than thread-per-request: a grant
// decision is immediate state manipulation in kernel context, and blocked
// requests consume a queue entry, not a service thread, so ten thousand
// waiters cost ten thousand list nodes.

// LockMode is the sharing mode of a lock request.
type LockMode int

const (
	// Shared allows any number of concurrent shared holders.
	Shared LockMode = iota
	// Exclusive allows exactly one holder.
	Exclusive
)

func (m LockMode) String() string {
	if m == Exclusive {
		return "exclusive"
	}
	return "shared"
}

// Owner names a lock holder: the node plus a client-chosen tag, so several
// processes on one node can hold locks independently.
type Owner struct {
	Node netsim.NodeID
	Tag  uint64
}

// Errors reported by the lock service.
var ErrNotHeld = errors.New("txn: unlock of a lock not held by owner")

type lockWaiter struct {
	owner Owner
	mode  LockMode
	to    addressee
}

// addressee is where a lock request's reply goes: the requester's node,
// reply portal and token, copied out of the request record, so a queued
// waiter's reply needs nothing the released record held.
type addressee struct {
	node  netsim.NodeID
	port  portals.Index
	token uint64
}

type lockState struct {
	mode    LockMode
	holders map[Owner]int // refcount per owner (re-entrant shared grants)
	queue   []lockWaiter
	gen     uint64 // exclusive grants so far
}

// grant adds one grant in mode to owner and returns the lock's generation.
func (st *lockState) grant(owner Owner, mode LockMode) uint64 {
	st.mode = mode
	st.holders[owner]++
	if mode == Exclusive {
		st.gen++
	}
	return st.gen
}

// LockServer is the lock service. It is kernel-event driven; lockOpCost
// models the per-request processing time.
type LockServer struct {
	k     *sim.Kernel
	ep    *portals.Endpoint
	locks map[string]*lockState

	grants, waits *metrics.Counter
}

// LockPortal is where a deployment's lock service listens.
const LockPortal portals.Index = 14

// lockOpCost is the CPU cost to parse and dispatch one lock request
// (DESIGN.md §7).
const lockOpCost = 10 * time.Microsecond

// StartLockServer binds a lock server at ep's LockPortal.
func StartLockServer(ep *portals.Endpoint) *LockServer {
	ls := &LockServer{k: ep.Kernel(), ep: ep, locks: make(map[string]*lockState)}
	lk := ep.Metrics().Scope("lock")
	ls.grants = lk.Counter("grants")
	ls.waits = lk.Counter("waits")
	lk.Counter("timeouts") // always 0: Lock waits without bound; the row stays in the metrics report
	eq := sim.NewMailbox(ls.k, "lockserver/eq")
	ep.Attach(LockPortal, 0, ^portals.MatchBits(0), &portals.MD{EQ: eq})
	ls.k.SpawnDaemon("lockserver", func(p *sim.Proc) {
		for {
			ev := eq.Recv(p).(*portals.Event)
			p.Sleep(lockOpCost)
			ls.dispatch(ev.Initiator, ev.Hdr)
			ev.Release()
		}
	})
	return ls
}

// dispatch serves one request. It takes what it needs of the event by value:
// a queued waiter's reply runs long after the record is released.
func (ls *LockServer) dispatch(from netsim.NodeID, hdr interface{}) {
	req, ok := hdr.(lockRPC)
	if !ok {
		return
	}
	to := addressee{node: from, port: req.replyPort, token: req.token}
	if req.unlock {
		ls.reply(to, 0, ls.unlock(req))
	} else {
		ls.lock(req, to)
	}
}

// reply answers the request addressed by to.
func (ls *LockServer) reply(to addressee, gen uint64, err error) {
	ls.ep.Put(to.node, to.port, portals.MatchBits(to.token),
		lockReply{token: to.token, gen: gen, err: err}, netsim.SyntheticPayload(16))
}

// compatible reports whether a request can be granted given current holders.
func (st *lockState) compatible(mode LockMode) bool {
	if len(st.holders) == 0 {
		return true
	}
	return st.mode == Shared && mode == Shared
}

func (ls *LockServer) lock(r lockRPC, to addressee) {
	st, ok := ls.locks[r.name]
	if !ok {
		st = &lockState{holders: make(map[Owner]int)}
		ls.locks[r.name] = st
	}
	// Re-entrant same-mode acquisition by a current holder.
	if _, held := st.holders[r.owner]; held && st.mode == r.mode {
		ls.grants.Inc()
		ls.reply(to, st.grant(r.owner, r.mode), nil)
		return
	}
	if st.compatible(r.mode) && len(st.queue) == 0 {
		ls.grants.Inc()
		ls.reply(to, st.grant(r.owner, r.mode), nil)
		return
	}
	ls.waits.Inc()
	st.queue = append(st.queue, lockWaiter{owner: r.owner, mode: r.mode, to: to})
}

func (ls *LockServer) unlock(r lockRPC) error {
	st, ok := ls.locks[r.name]
	if !ok {
		return ErrNotHeld
	}
	if st.holders[r.owner] == 0 {
		return ErrNotHeld
	}
	st.holders[r.owner]--
	if st.holders[r.owner] == 0 {
		delete(st.holders, r.owner)
	}
	ls.promote(st)
	return nil
}

// promote grants queued waiters FIFO: an exclusive waiter needs an empty
// holder set; shared waiters are granted in a batch.
func (ls *LockServer) promote(st *lockState) {
	for len(st.queue) > 0 {
		w := st.queue[0]
		if !st.compatible(w.mode) {
			return
		}
		st.queue = st.queue[1:]
		ls.grants.Inc()
		ls.reply(w.to, st.grant(w.owner, w.mode), nil)
		if w.mode == Exclusive {
			return
		}
	}
}

// lock client plumbing: the lock server speaks its own tiny protocol
// (not portals.Serve) so that blocked requests do not pin service threads.

// lockRPC is a lock or unlock request, flat: the event's header boxes it
// once.
type lockRPC struct {
	token     uint64
	replyPort portals.Index
	unlock    bool
	name      string
	mode      LockMode // a lock's
	owner     Owner
}

type lockReply struct {
	token uint64
	gen   uint64
	err   error
}

const lockReplyPortal portals.Index = 1021

// LockClient acquires and releases locks from one client process.
type LockClient struct {
	ep     *portals.Endpoint
	server netsim.NodeID
	owner  Owner
}

// NewLockClient creates a client of the lock server on node server. tag
// distinguishes co-located owners.
func NewLockClient(ep *portals.Endpoint, server netsim.NodeID, tag uint64) *LockClient {
	return &LockClient{ep: ep, server: server, owner: Owner{Node: ep.Node(), Tag: tag}}
}

func (lc *LockClient) call(p *sim.Proc, req lockRPC) (uint64, error) {
	req.token, req.replyPort, req.owner = lc.ep.NextToken(), lockReplyPortal, lc.owner
	slot := lc.ep.Post(lockReplyPortal, portals.MatchBits(req.token), true)
	lc.ep.Put(lc.server, LockPortal, 0, req, netsim.SyntheticPayload(96))
	ev, _ := slot.Wait(p, 0)
	r := ev.Hdr.(lockReply)
	ev.Release()
	slot.Close()
	return r.gen, r.err
}

// Lock blocks until the named lock is granted in the requested mode. It
// returns the lock's generation: how many exclusive grants the name has had,
// this one included. A holder that saw generation g at its last exclusive
// grant and now gets g+1 (exclusive) or g (shared) knows nobody else held the
// lock exclusively in between, so state it cached under the lock is current.
func (lc *LockClient) Lock(p *sim.Proc, name string, mode LockMode) (uint64, error) {
	return lc.call(p, lockRPC{name: name, mode: mode})
}

// Unlock releases one grant of the named lock.
func (lc *LockClient) Unlock(p *sim.Proc, name string) error {
	_, err := lc.call(p, lockRPC{unlock: true, name: name})
	return err
}
