// Package burst implements a burst-buffer staging tier between compute
// clients and storage servers — the write-behind checkpoint absorber the
// paper's layered design invites as a policy library above the fixed core
// (§3, Figures 2–3; §4 motivates it: applications need to absorb a
// synchronized write burst and get back to computing).
//
// A burst.Server accepts capability-checked writes into a bounded
// in-memory staging area using the same server-directed pull loop as storage
// (§3.2, portals.Puller): the buffer pulls the client's data at its own pace,
// so a burst of requests never overwhelms receive buffers. The client is
// acknowledged as soon as the pull lands — long before the data is on
// disk. A pool of background drain workers then streams staged extents to
// the real storage servers with bounded in-flight RPCs, retry via
// portals.RetryPolicy, and one sync per destination batch, releasing
// staging capacity as extents become durable.
//
// Backpressure: when the staging area cannot hold a new extent, the write
// degrades to a synchronous pass-through — the buffer pulls the data and
// relays it straight to storage before acknowledging — so capacity
// exhaustion costs latency, never failures.
//
// Durability contract: in the default memory-only mode,
// staged-but-undrained data is volatile. A buffer crash loses it, and a
// subsequent DrainWait for the lost extents reports ErrLost instead of
// hanging, so a layer that commits only after DrainWait succeeds (the
// checkpoint manifest) turns a buffer crash into a detectable aborted dump,
// never silent corruption.
//
// Journaled mode (Start with a journal device, LWFS §3.4's journals
// applied to the staging tier) upgrades the contract: each staged extent
// is appended to a write-ahead journal on a buffer-local device before the
// ack, so the ack is a durability promise. A crash then costs bounded
// recovery latency instead of the window: Restart replays the journal,
// re-queues the undrained extents, and the drain resumes — see journal.go
// for the record format, epoch fencing and truncation rule. Memory-only
// behavior is bit-identical to the pre-journal tier.
package burst

import (
	"errors"
	"fmt"
	"time"

	"lwfs/internal/authz"
	"lwfs/internal/metrics"
	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/portals"
	"lwfs/internal/qos"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/txn"
)

// Portal is the well-known portal that receives staging requests. The
// capability-invalidation portal is Portal+1, the drain-wait portal Portal+2.
const Portal portals.Index = 40

// Errors reported by the burst service.
var (
	// ErrLost is returned by DrainWait for an extent this buffer does not
	// hold — staged before a crash (and lost with the buffer's memory) or
	// never staged here at all. Either way the data's durability cannot be
	// vouched for and the caller must treat the dump as aborted.
	ErrLost = errors.New("burst: staged data lost (buffer crashed before drain?)")
	// ErrDrainFailed is returned by DrainWait when a drain's write to the
	// backing storage server failed.
	ErrDrainFailed = errors.New("burst: drain to storage failed")
)

// Calibration constants (DESIGN.md §7).
const (
	// threads is the number of concurrent staging request service processes.
	threads = 4
	// chunkSize is the bulk-transfer granularity of client pulls.
	chunkSize int64 = 1 << 20
	// pinnedBuffer bounds the pull-buffer pool, bytes.
	pinnedBuffer int64 = 8 << 20
	// OpCost is the CPU cost to parse and dispatch a staging request.
	OpCost = 20 * time.Microsecond
)

// Config tunes a burst-buffer server.
type Config struct {
	StageCapacity int64 // staging-area bound, bytes (write-behind window)

	DrainWorkers int     // concurrent drain streams (bounds in-flight RPCs)
	DrainBW      float64 // drain pacing, bytes/s per worker (0 = unpaced)

	// QoS, when non-nil, installs a per-tenant admission controller in
	// front of the staging portal. nil = FIFO, unbounded.
	QoS *qos.Config

	// NoDrainYield disables the drain scheduler's yield to foreground
	// pass-through traffic — the pre-QoS behavior, kept as an ablation
	// knob (the E20 "unfair" baseline).
	NoDrainYield bool
}

// journalRetain (journaled mode) is the size past which the journal is
// truncated at the next quiesce point (no staged extent un-drained). Below
// it the journal is retained so a crash shortly *after* the drains finish
// can still vouch for the drained refs.
func (c Config) journalRetain() int64 { return 2 * c.StageCapacity }

// DefaultConfig returns defaults sized for the dev-cluster calibration: a
// staging window of 64 MB absorbs a few ranks' checkpoint burst per buffer.
func DefaultConfig() Config {
	return Config{StageCapacity: 64 << 20, DrainWorkers: 2}
}

// Target names a burst server: a node and RPC portal pair.
type Target struct {
	Node netsim.NodeID
	Port portals.Index
}

// request bodies

type stageReq struct {
	Cap        authz.Capability
	Ref        storage.ObjRef // destination object on the backing store
	Off        int64
	Len        int64
	Bits       portals.MatchBits // where the client's buffer is matched
	DataPortal portals.Index
}

// QoSTenant satisfies qos.Classified: the tenant is the capability's
// container, the accounted cost the staged length.
func (r stageReq) QoSTenant() (uint64, int64) { return uint64(r.Cap.Container), r.Len }

type stageResp struct {
	Staged bool // false: staging was full, the write passed through synchronously
}

type drainWaitReq struct {
	Refs []storage.ObjRef
}

// extent is one staged write awaiting drain.
type extent struct {
	ref      storage.ObjRef
	cap      authz.Capability
	off      int64
	payload  netsim.Payload
	stagedAt sim.Time
	epoch    uint64 // discard if the server crashed since staging
	seq      uint64 // journal record sequence (0 = memory-only, unjournaled)
}

// Server is one burst-buffer node's staging service.
type Server struct {
	ep      *portals.Endpoint
	sc      *storage.Client // drain path (background class)
	fg      *storage.Client // pass-through relay path (foreground class)
	cfg     Config
	adm     *qos.Admission
	name    string
	bufPool *sim.Resource
	puller  *portals.Puller

	// stageAvail is the remaining staging window, a gauge registered as
	// `burst.<node>.stage_avail`. Admission is try-acquire-only (a full
	// window degrades to pass-through, it never blocks), so a gauge
	// suffices and — unlike sim.Resource — can be reset wholesale when a
	// crash vaporizes the staged contents.
	stageAvail *metrics.Gauge
	drainq     *sim.Mailbox // wakeup tokens, one per enqueued extent
	dq         *drainQueue
	// drainBacklog mirrors the extents sitting in dq, registered as
	// `burst.<node>.drain.backlog`.
	drainBacklog *metrics.Gauge
	epoch        uint64

	// Journaled mode (nil jdev = memory-only): log appends to the journal
	// object on jdev, jseq is the last sequence issued, jlive counts the
	// stage records reserved and not yet drained (the truncation gate).
	jdev        *osd.Device
	log         *txn.Journal
	jseq        uint64
	jlive       int
	truncations *metrics.Counter

	// Per-destination bookkeeping for DrainWait. seen records every ref
	// this incarnation has absorbed (staged or passed through); pending
	// counts its extents not yet durable; failed marks refs whose drain
	// exhausted its retries. All three are volatile: a crash clears them,
	// which is exactly what makes lost data detectable.
	seen    map[storage.ObjRef]bool
	pending map[storage.ObjRef]int
	failed  map[storage.ObjRef]bool

	caps authz.CapCache

	// Registered instruments under `burst.<node>.*`. All updates are
	// atomic (or mutex-guarded, for the histogram), so registry reads are
	// race-safe from any goroutine.
	staged       *metrics.Counter // extents absorbed into the staging area
	passthroughs *metrics.Counter // writes degraded to synchronous pass-through
	stagedBytes  *metrics.Counter
	drainedBytes *metrics.Counter
	drainSyncs   *metrics.Counter   // flush barriers issued against storage
	drainLat     *metrics.Histogram // staging-ack to durable, milliseconds
	fgActive     *metrics.Gauge     // pass-through relays currently in flight
	drainYields  *metrics.Counter   // drain pauses that let foreground traffic ahead

	rpc, waitRPC *portals.Server
}

// Start binds a burst server to ep's node at the well-known Portal. az
// verifies capabilities; drains go out through a dedicated storage client.
// A non-nil jdev (a buffer-local device) makes the server journaled: every
// staged extent is appended to a write-ahead journal on it before the ack,
// and Restart replays the journal instead of discarding the staged window.
// A nil jdev keeps the server memory-only.
func Start(ep *portals.Endpoint, az *authz.Client, cfg Config, jdev *osd.Device) *Server {
	if cfg.StageCapacity <= 0 || cfg.DrainWorkers <= 0 {
		panic(fmt.Sprintf("burst: bad config %+v", cfg))
	}
	name := fmt.Sprintf("burst%d", ep.Node())
	scope := ep.Metrics().Scope("burst").Scope(ep.NodeName())
	drain := scope.Scope("drain")
	// Two storage clients with distinct wire classes: drains are background
	// (an admission-controlled storage server runs them only when no
	// foreground request is dispatchable), pass-through relays are
	// foreground — a client waiting synchronously is behind each one.
	caller := portals.NewCaller(ep)
	caller.SetClass(qos.ClassBackground)
	fgCaller := portals.NewCaller(ep)
	s := &Server{
		ep:           ep,
		sc:           storage.NewClient(caller),
		fg:           storage.NewClient(fgCaller),
		cfg:          cfg,
		name:         name,
		bufPool:      sim.NewResource(ep.Kernel(), name+"/pinned", pinnedBuffer),
		puller:       portals.NewPuller(ep, name, chunkSize),
		stageAvail:   scope.Gauge("stage_avail"),
		drainq:       sim.NewMailbox(ep.Kernel(), name+"/drainq"),
		dq:           newDrainQueue(),
		jdev:         jdev,
		log:          txn.NewJournal(jdev, journalObjectID), // never appended to when memory-only
		drainBacklog: drain.Gauge("backlog"),
		staged:       scope.Counter("staged"),
		passthroughs: scope.Counter("passthroughs"),
		stagedBytes:  scope.Counter("staged_bytes"),
		drainedBytes: scope.Counter("drained_bytes"),
		drainSyncs:   drain.Counter("syncs"),
		drainLat:     drain.Histogram("latency_ms"),
		fgActive:     scope.Gauge("fg_active"),
		drainYields:  drain.Counter("yields"),
		truncations:  scope.Scope("journal").Counter("truncations"),
		seen:         make(map[storage.ObjRef]bool),
		pending:      make(map[storage.ObjRef]int),
		failed:       make(map[storage.ObjRef]bool),
	}
	s.stageAvail.Set(cfg.StageCapacity)
	s.rpc = portals.ServeOps(ep, Portal, name, threads, stageOps, s) //qos:admitted
	if cfg.QoS != nil {
		s.adm = qos.NewAdmission(ep.Kernel(), ep.Metrics().Scope("qos").Scope(name), *cfg.QoS)
		s.rpc.SetDispatcher(s.adm)
	}
	s.caps.Serve(ep, az, Portal+1, name, scope.Scope("cap_cache"), false)
	// Drain waits block their worker until the staged extents are durable,
	// so they get their own small thread pool: a waiter must never starve
	// the staging path (which is what fills the queue the waiter watches).
	// Long-blocking waiters would also wedge an admission queue, so this
	// port stays FIFO. //qos:exempt
	s.waitRPC = portals.ServeOps(ep, Portal+2, name+"/wait", 2, waitOps, s)
	for i := 0; i < cfg.DrainWorkers; i++ {
		ep.Kernel().SpawnDaemon(fmt.Sprintf("%s/drain%d", name, i), s.drainWorker)
	}
	return s
}

// Node returns the node the server runs on.
func (s *Server) Node() netsim.NodeID { return s.ep.Node() }

// Tgt returns the server's target descriptor.
func (s *Server) Tgt() Target { return Target{Node: s.Node(), Port: Portal} }

// Crash fail-stops the buffer: the RPC ports stop answering and the staged
// contents — in-memory only — are gone, along with the bookkeeping that
// could vouch for them. Queued drain work is discarded; a drain already in
// flight is voided (its results are not recorded even if the storage write
// lands, mirroring a process whose memory died mid-operation). In journaled
// mode the journal device survives — Restart rebuilds the window from it.
func (s *Server) Crash() {
	s.rpc.SetDown(true)
	s.waitRPC.SetDown(true)
	s.caps.Crash()
	s.epoch++
	for {
		if _, ok := s.drainq.TryRecv(); !ok {
			break
		}
	}
	s.dq.clear()
	s.drainBacklog.Set(0)
	s.seen = make(map[storage.ObjRef]bool)
	s.pending = make(map[storage.ObjRef]int)
	s.failed = make(map[storage.ObjRef]bool)
	s.stageAvail.Set(s.cfg.StageCapacity)
	s.log.Crash() // the open journal handle died with the process
}

// Restart brings a crashed buffer back. In memory-only mode extents staged
// before the crash are gone and DrainWait for them reports ErrLost. In
// journaled mode the journal is replayed first — staged-but-undrained
// extents are re-queued and their drain resumes — and only then do the RPC
// ports reopen, so a DrainWait arriving right after restart already sees
// the rebuilt bookkeeping. Returns how many extents were recovered.
func (s *Server) Restart(p *sim.Proc) (recovered int, err error) {
	if s.jdev != nil {
		recovered, err = s.replayJournal(p)
		if err != nil {
			return recovered, fmt.Errorf("burst: journal replay: %w", err)
		}
	}
	s.rpc.SetDown(false)
	s.waitRPC.SetDown(false)
	s.caps.Restart()
	return recovered, nil
}

// The staging operation and the drain wait, each the one operation of its
// port's handler table.
var (
	opStage     = portals.NewOp[stageReq, stageResp]()
	opDrainWait = portals.NewOp[drainWaitReq, struct{}]()

	stageOps = portals.NewOps(portals.Handle(opStage, (*Server).handle))
	waitOps  = portals.NewOps(portals.Handle(opDrainWait, (*Server).handleWait))
)

func (s *Server) handle(p *sim.Proc, from netsim.NodeID, r *stageReq) (stageResp, error) {
	p.Sleep(OpCost)
	if err := storage.CheckRange(r.Off, r.Len); err != nil {
		return stageResp{}, fmt.Errorf("burst: %w", err)
	}
	// Staging needs a write capability. The buffer holds no device metadata
	// to bind it to the object's container: the backing storage server
	// enforces that when the extent drains.
	if err := s.caps.Admit(p, &r.Cap, authz.OpWrite, r.Cap.Container); err != nil {
		return stageResp{}, err
	}
	if r.Len <= s.stageAvail.Value() {
		return s.stage(p, from, r)
	}
	return s.passthrough(p, from, r)
}

// stage absorbs the write into the staging window and acknowledges as soon
// as the pull lands (in journaled mode: as soon as the journal append is
// durable): write-behind. The extent is queued for the drainers.
func (s *Server) stage(p *sim.Proc, from netsim.NodeID, r *stageReq) (stageResp, error) {
	epoch := s.epoch
	s.stageAvail.Add(-r.Len)
	staging := netsim.Joiner{Size: r.Len}
	_, err := s.puller.Pull(p, from, r.DataPortal, r.Bits, r.Len, s.bufPool,
		func(q *sim.Proc, off int64, chunk netsim.Payload) error {
			staging.Add(off, chunk)
			return nil
		})
	if epoch != s.epoch {
		// Crashed mid-pull: the new incarnation reset the window wholesale,
		// so touching stageAvail would double-credit it. The reply is
		// suppressed by the downed RPC server anyway.
		return stageResp{}, fmt.Errorf("burst: crashed while staging obj %d", uint64(r.Ref.ID))
	}
	if err != nil {
		s.stageAvail.Add(r.Len)
		return stageResp{}, err
	}
	staged := staging.Payload()
	var seq uint64
	if s.jdev != nil {
		seq, err = s.journalStage(p, r, staged)
		if epoch != s.epoch {
			return stageResp{}, fmt.Errorf("burst: crashed while journaling obj %d", uint64(r.Ref.ID))
		}
		if err != nil {
			s.stageAvail.Add(r.Len)
			return stageResp{}, fmt.Errorf("burst: journal append: %w", err)
		}
	}
	s.staged.Inc()
	s.stagedBytes.Add(r.Len)
	s.track(extent{ref: r.Ref, cap: r.Cap, off: r.Off, payload: staged, stagedAt: p.Now(), epoch: s.epoch, seq: seq})
	return stageResp{Staged: true}, nil
}

// track takes a staged extent into this incarnation's bookkeeping and hands
// it to the drainers.
func (s *Server) track(e extent) {
	s.seen[e.ref] = true
	s.pending[e.ref]++
	s.enqueue(e)
}

// passthrough is the backpressure path: with no staging room, the buffer
// relays each pulled chunk straight to the backing store and syncs before
// acknowledging — the client sees direct-write latency, never a failure.
func (s *Server) passthrough(p *sim.Proc, from netsim.NodeID, r *stageReq) (stageResp, error) {
	epoch := s.epoch
	// A client is synchronously blocked behind this relay: flag it so the
	// drain workers yield the storage device (sched.go) until it completes.
	s.fgActive.Add(1)
	defer s.fgActive.Add(-1)
	_, err := s.puller.Pull(p, from, r.DataPortal, r.Bits, r.Len, s.bufPool,
		func(q *sim.Proc, off int64, chunk netsim.Payload) error {
			_, werr := s.fg.Write(q, r.Ref, r.Cap, r.Off+off, chunk)
			return werr
		})
	if err != nil {
		return stageResp{}, err
	}
	if err := s.fg.Sync(p, storage.TargetOf(r.Ref), r.Cap); err != nil {
		return stageResp{}, err
	}
	if epoch != s.epoch {
		// Crashed mid-relay: the write may be durable, but this incarnation's
		// bookkeeping is gone and the reply is suppressed regardless.
		return stageResp{}, fmt.Errorf("burst: crashed while relaying obj %d", uint64(r.Ref.ID))
	}
	if s.jdev != nil {
		// Record the completion so a post-crash DrainWait can still vouch
		// for this ref instead of degenerating to ErrLost.
		if err := s.journalDurable(p, r.Ref); err != nil {
			return stageResp{}, fmt.Errorf("burst: journal append: %w", err)
		}
		if epoch != s.epoch {
			return stageResp{}, fmt.Errorf("burst: crashed while journaling obj %d", uint64(r.Ref.ID))
		}
	}
	s.passthroughs.Inc()
	s.seen[r.Ref] = true // durable already: pending stays zero
	return stageResp{Staged: false}, nil
}

// drainPoll is how often a blocked DrainWait re-examines the pending set.
const drainPoll = 500 * time.Microsecond

// handleWait serves DrainWait: it returns once every requested ref is
// durable on the backing store, or fails fast when a ref is unknown to
// this incarnation (ErrLost — the buffer crashed after staging it) or its
// drain gave up (ErrDrainFailed).
func (s *Server) handleWait(p *sim.Proc, _ netsim.NodeID, r *drainWaitReq) (struct{}, error) {
	epoch := s.epoch
	for {
		done := true
		for _, ref := range r.Refs {
			if epoch != s.epoch || !s.seen[ref] {
				return struct{}{}, fmt.Errorf("%w: obj %d on server %d:%d", ErrLost, uint64(ref.ID), ref.Node, ref.Port)
			}
			if s.failed[ref] {
				return struct{}{}, fmt.Errorf("%w: obj %d on server %d:%d", ErrDrainFailed, uint64(ref.ID), ref.Node, ref.Port)
			}
			if s.pending[ref] > 0 {
				done = false
				break
			}
		}
		if done {
			return struct{}{}, nil
		}
		p.Sleep(drainPoll)
	}
}
