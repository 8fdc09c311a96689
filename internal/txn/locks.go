package txn

import (
	"errors"
	"fmt"
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
var (
	ErrNotHeld     = errors.New("txn: unlock of a lock not held by owner")
	ErrLockTimeout = errors.New("txn: lock wait timed out")
	ErrWouldBlock  = errors.New("txn: lock unavailable (try)")
)

type lockWaiter struct {
	owner    Owner
	mode     LockMode
	reply    func(err error)
	canceled bool
}

type lockState struct {
	mode    LockMode
	holders map[Owner]int // refcount per owner (re-entrant shared grants)
	queue   []*lockWaiter
}

// lock RPC bodies

type lockReq struct {
	Name  string
	Mode  LockMode
	Owner Owner
	Try   bool
}

type unlockReq struct {
	Name  string
	Owner Owner
}

// cancelReq withdraws a timed-out lock request: a queued waiter is marked
// canceled; a grant that already happened is released.
type cancelReq struct {
	Name  string
	Owner Owner
}

// LockServer is the lock service. It is kernel-event driven; OpCost models
// the per-request processing time.
type LockServer struct {
	k      *sim.Kernel
	ep     *portals.Endpoint
	opCost time.Duration
	locks  map[string]*lockState

	grants, waits, timeouts *metrics.Counter
}

// StartLockServer binds a lock server at (ep, port).
func StartLockServer(ep *portals.Endpoint, port portals.Index, opCost time.Duration) *LockServer {
	ls := &LockServer{k: ep.Kernel(), ep: ep, opCost: opCost, locks: make(map[string]*lockState)}
	lk := ep.Metrics().Scope("lock")
	ls.grants = lk.Counter("grants")
	ls.waits = lk.Counter("waits")
	ls.timeouts = lk.Counter("timeouts")
	eq := sim.NewMailbox(ls.k, "lockserver/eq")
	ep.Attach(port, 0, ^portals.MatchBits(0), &portals.MD{EQ: eq})
	ls.k.SpawnDaemon("lockserver", func(p *sim.Proc) {
		for {
			ev := eq.Recv(p).(*portals.Event)
			p.Sleep(ls.opCost)
			ls.dispatch(ev.Initiator, ev.Hdr)
			ev.Release()
		}
	})
	return ls
}

// QueueLen reports the number of waiters on a named lock.
func (ls *LockServer) QueueLen(name string) int {
	if st, ok := ls.locks[name]; ok {
		return len(st.queue)
	}
	return 0
}

// dispatch serves one request. It takes what it needs of the event by value:
// a queued waiter's reply runs long after the record is released.
func (ls *LockServer) dispatch(from netsim.NodeID, hdr interface{}) {
	req, ok := hdr.(lockRPC)
	if !ok {
		return
	}
	reply := func(err error) {
		ls.ep.Put(from, req.replyPort, portals.MatchBits(req.token),
			lockReply{token: req.token, err: err}, netsim.SyntheticPayload(16))
	}
	switch r := req.body.(type) {
	case lockReq:
		ls.lock(r, reply)
	case unlockReq:
		reply(ls.unlock(r))
	case cancelReq:
		ls.cancel(r)
		reply(nil)
	default:
		reply(fmt.Errorf("txn: unknown lock request %T", req.body))
	}
}

// compatible reports whether a request can be granted given current holders.
func (st *lockState) compatible(mode LockMode) bool {
	if len(st.holders) == 0 {
		return true
	}
	return st.mode == Shared && mode == Shared
}

func (ls *LockServer) lock(r lockReq, reply func(error)) {
	st, ok := ls.locks[r.Name]
	if !ok {
		st = &lockState{holders: make(map[Owner]int)}
		ls.locks[r.Name] = st
	}
	// Re-entrant same-mode acquisition by a current holder.
	if _, held := st.holders[r.Owner]; held && st.mode == r.Mode {
		st.holders[r.Owner]++
		ls.grants.Inc()
		reply(nil)
		return
	}
	if st.compatible(r.Mode) && len(st.queue) == 0 {
		st.mode = r.Mode
		st.holders[r.Owner]++
		ls.grants.Inc()
		reply(nil)
		return
	}
	if r.Try {
		reply(ErrWouldBlock)
		return
	}
	ls.waits.Inc()
	st.queue = append(st.queue, &lockWaiter{owner: r.Owner, mode: r.Mode, reply: reply})
}

func (ls *LockServer) unlock(r unlockReq) error {
	st, ok := ls.locks[r.Name]
	if !ok {
		return ErrNotHeld
	}
	if st.holders[r.Owner] == 0 {
		return ErrNotHeld
	}
	st.holders[r.Owner]--
	if st.holders[r.Owner] == 0 {
		delete(st.holders, r.Owner)
	}
	ls.promote(st)
	return nil
}

// cancel withdraws a waiter, or releases an already-delivered grant.
func (ls *LockServer) cancel(r cancelReq) {
	st, ok := ls.locks[r.Name]
	if !ok {
		return
	}
	for _, w := range st.queue {
		if w.owner == r.Owner && !w.canceled {
			w.canceled = true
			ls.timeouts.Inc()
			return
		}
	}
	if st.holders[r.Owner] > 0 {
		ls.timeouts.Inc()
		ls.unlock(unlockReq{Name: r.Name, Owner: r.Owner}) //nolint:errcheck
	}
}

// promote grants queued waiters FIFO: an exclusive waiter needs an empty
// holder set; shared waiters are granted in a batch.
func (ls *LockServer) promote(st *lockState) {
	for len(st.queue) > 0 {
		w := st.queue[0]
		if w.canceled {
			st.queue = st.queue[1:]
			continue
		}
		if !st.compatible(w.mode) {
			return
		}
		st.queue = st.queue[1:]
		st.mode = w.mode
		st.holders[w.owner]++
		ls.grants.Inc()
		w.reply(nil)
		if w.mode == Exclusive {
			return
		}
	}
}

// lock client plumbing: the lock server speaks its own tiny protocol
// (not portals.Serve) so that blocked requests do not pin service threads.

type lockRPC struct {
	token     uint64
	replyPort portals.Index
	body      interface{}
}

type lockReply struct {
	token uint64
	err   error
}

const lockReplyPortal portals.Index = 1021

// LockClient acquires and releases locks from one client process.
type LockClient struct {
	ep     *portals.Endpoint
	server netsim.NodeID
	port   portals.Index
	owner  Owner
}

// NewLockClient creates a client of the lock server at (server, port). tag
// distinguishes co-located owners.
func NewLockClient(ep *portals.Endpoint, server netsim.NodeID, port portals.Index, tag uint64) *LockClient {
	return &LockClient{ep: ep, server: server, port: port, owner: Owner{Node: ep.Node(), Tag: tag}}
}

func (lc *LockClient) call(p *sim.Proc, body interface{}, timeout time.Duration) error {
	token := lc.ep.NextToken()
	slot := lc.ep.Post(lockReplyPortal, portals.MatchBits(token), true)
	lc.ep.Put(lc.server, lc.port, 0, lockRPC{token: token, replyPort: lockReplyPortal, body: body},
		netsim.SyntheticPayload(96))
	ev, ok := slot.Wait(p, timeout)
	if !ok {
		return ErrLockTimeout
	}
	err := ev.Hdr.(lockReply).err
	ev.Release()
	slot.Close()
	return err
}

// Lock blocks until the named lock is granted in the requested mode.
func (lc *LockClient) Lock(p *sim.Proc, name string, mode LockMode) error {
	return lc.call(p, lockReq{Name: name, Mode: mode, Owner: lc.owner}, 0)
}

// TryLock acquires the lock only if it is immediately available.
func (lc *LockClient) TryLock(p *sim.Proc, name string, mode LockMode) error {
	return lc.call(p, lockReq{Name: name, Mode: mode, Owner: lc.owner, Try: true}, 0)
}

// LockTimeout is Lock with a wait bound. On timeout the request is
// withdrawn at the server: a still-queued waiter is canceled; a grant that
// raced the timeout is released.
func (lc *LockClient) LockTimeout(p *sim.Proc, name string, mode LockMode, d time.Duration) error {
	err := lc.call(p, lockReq{Name: name, Mode: mode, Owner: lc.owner}, d)
	if errors.Is(err, ErrLockTimeout) {
		if cerr := lc.call(p, cancelReq{Name: name, Owner: lc.owner}, 0); cerr != nil {
			return fmt.Errorf("%w (cancel failed: %v)", ErrLockTimeout, cerr)
		}
	}
	return err
}

// Unlock releases one grant of the named lock.
func (lc *LockClient) Unlock(p *sim.Proc, name string) error {
	return lc.call(p, unlockReq{Name: name, Owner: lc.owner}, 0)
}
