// Package txn implements the LWFS transactional mechanisms (paper §3.4):
// journals for atomicity and durability, a two-phase-commit protocol that
// makes distributed operations (like a checkpoint touching many storage
// servers plus the naming service) all-or-nothing, and a lock service that
// lets clients build their own consistency and isolation policies.
//
// The division of labor is deliberately lightweight. The core provides
// mechanism only:
//
//   - A Participant lives next to each service that owns durable state
//     (storage servers, the naming service). Host services log provisional
//     actions against a journal object on their device and register
//     commit/abort callbacks.
//   - A Coordinator drives two-phase commit from the client. The last
//     participant enlisted is the decision site: the others prepare
//     (journal flush + vote, the record naming the site), then the site
//     votes and commits in one journal write — the commit point — and the
//     others are told the outcome.
//   - Locks (see locks.go) are plain named shared/exclusive locks; what
//     they protect and when to take them is application policy, not core
//     policy — checkpointing, with its non-overlapping writes, never takes
//     one (§4).
package txn

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"lwfs/internal/metrics"
	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
)

// ID identifies a distributed transaction: coordinator node in the high 32
// bits, a per-coordinator sequence number in the low 32.
type ID uint64

func (id ID) String() string { return fmt.Sprintf("txn-%d.%d", id>>32, uint32(id)) }

// Endpoint names a transaction participant: a node and RPC portal.
type Endpoint struct {
	Node netsim.NodeID
	Port portals.Index
}

// Status of a transaction at a participant.
type Status int

const (
	// StatusActive means work is being logged.
	StatusActive Status = iota
	// StatusPrepared means the participant voted yes and persists its vote.
	StatusPrepared
	// StatusCommitted is terminal success.
	StatusCommitted
	// StatusAborted is terminal failure; provisional work was undone.
	StatusAborted
)

func (s Status) String() string {
	switch s {
	case StatusActive:
		return "active"
	case StatusPrepared:
		return "prepared"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Errors reported by the protocol.
var (
	ErrVoteNo      = errors.New("txn: participant voted no")
	ErrNotPrepared = errors.New("txn: commit for a transaction that is not prepared")
	ErrTerminal    = errors.New("txn: transaction already committed or aborted")
	ErrAborted     = errors.New("txn: transaction aborted")
	// ErrInDoubt is Commit's error when the decision site did not answer:
	// the transaction may have committed or not. A helper process asks the
	// site and delivers its answer. It wraps portals.ErrRPCTimeout, so
	// portals.FailStop reads it as "route around".
	ErrInDoubt = fmt.Errorf("txn: outcome in doubt: %w", portals.ErrRPCTimeout)
)

// JournalRecord is one durable journal entry. Records are written to the
// journal object before state changes are applied (write-ahead).
type JournalRecord struct {
	Txn    ID
	Kind   string // "begin", "create", "write", "name", "prepare", "commit", "abort"
	Detail string // a prepare's: its decision site, "site=<node>:<port>"
}

// appendTo appends the record's journal line, "<txn> <kind> <detail>\n", to
// buf. Kind holds no space or newline; Detail may hold spaces (naming logs
// raw paths) but no newline, which would end the record early (naming
// refuses such paths).
func (r *JournalRecord) appendTo(buf []byte) []byte {
	return append(append(appendHead(buf, r.Txn, r.Kind), r.Detail...), '\n')
}

// appendHead appends a record's "<txn> <kind> ".
func appendHead(buf []byte, id ID, kind string) []byte {
	buf = strconv.AppendUint(buf, uint64(id), 10)
	buf = append(buf, ' ')
	buf = append(buf, kind...)
	return append(buf, ' ')
}

// appendMark appends a protocol record: prepare, commit or abort. A prepare
// names its decision site; the others have no detail.
func appendMark(buf []byte, id ID, kind string, site Endpoint) []byte {
	buf = appendHead(buf, id, kind)
	if site != (Endpoint{}) {
		buf = append(buf, "site="...)
		buf = strconv.AppendUint(buf, uint64(site.Node), 10)
		buf = append(buf, ':')
		buf = strconv.AppendUint(buf, uint64(site.Port), 10)
	}
	return append(buf, '\n')
}

// siteOf reads the decision site a prepare record names.
func siteOf(r *JournalRecord) (Endpoint, bool) {
	if r.Kind != "prepare" {
		return Endpoint{}, false
	}
	rest, ok := strings.CutPrefix(r.Detail, "site=")
	node, port, ok2 := strings.Cut(rest, ":")
	n, err := strconv.ParseUint(node, 10, 32)
	pn, err2 := strconv.ParseUint(port, 10, 32)
	if !ok || !ok2 || err != nil || err2 != nil {
		return Endpoint{}, false
	}
	site := Endpoint{Node: netsim.NodeID(n), Port: portals.Index(pn)}
	return site, site != (Endpoint{})
}

// participant RPC bodies

type prepareReq struct {
	Txn  ID
	Site Endpoint // the participant that decides
}
type decideReq struct{ Txn ID }
type commitReq struct{ Txn ID }
type abortReq struct{ Txn ID }
type statusReq struct{ Txn ID }

type txnState struct {
	status   Status
	deferred *[]byte // Defer's records, for the vote's append: a buffer of pt.bufs
	onCommit []func(p *sim.Proc)
	onAbort  []func(p *sim.Proc)
}

// release drops the callbacks and deferred records of a transaction that
// reached a terminal status: only the status is needed from then on
// (idempotent retries), and the closures would otherwise pin whatever
// provisional objects they captured for the life of the server.
func (st *txnState) release() { st.deferred, st.onCommit, st.onAbort = nil, nil, nil }

// doubtful is a transaction Recover found prepared whose decision site did
// not answer.
type doubtful struct {
	id   ID
	site Endpoint
}

// Participant is the server-side half of two-phase commit, colocated with a
// durable service. It owns a journal object on the service's device.
type Participant struct {
	ep    *portals.Endpoint
	dev   *osd.Device
	rpc   *portals.Server
	log   *Journal
	state map[ID]*txnState

	// Recovery's view of the transactions it could not resolve: the ones
	// still in doubt, the caller that asks their sites (made on first
	// need), and the incarnation, bumped by Crash and Recover, that retires
	// an earlier daemon asking again.
	doubt  []doubtful
	caller *portals.Caller
	epoch  uint64

	// bufs are deferred-record buffers to reuse: a vote returns its
	// transaction's buffer once the device has copied the record.
	bufs []*[]byte

	// FailPrepare injects a no vote for testing coordinator abort paths.
	FailPrepare func(id ID) bool

	prepares, commits, aborts *metrics.Counter
}

// JournalObjectID is the well-known ID of a device's transaction journal,
// so a participant reborn after a crash finds the journal its predecessor
// wrote.
const JournalObjectID = osd.ReservedIDBase + 1

// NewParticipant creates a participant whose journal lives on dev, and
// binds its RPC service at (ep, port).
func NewParticipant(ep *portals.Endpoint, dev *osd.Device, port portals.Index) *Participant {
	pt := &Participant{
		ep:    ep,
		dev:   dev,
		log:   NewJournal(dev, JournalObjectID),
		state: make(map[ID]*txnState),
	}
	tx := ep.Metrics().Scope("txn").Scope(dev.Name())
	pt.prepares = tx.Counter("prepares")
	pt.commits = tx.Counter("commits")
	pt.aborts = tx.Counter("aborts")
	tx.GaugeFunc("in_doubt", func() (n int64) {
		for _, d := range pt.doubt {
			if pt.Status(d.id) == StatusPrepared {
				n++
			}
		}
		return n
	})
	pt.rpc = portals.ServeOps(ep, port, dev.Name()+"/txn", 2, participantOps, pt)
	return pt
}

// Crash models a fail-stop of the participant's process: the RPC port stops
// answering, and all volatile state — transaction statuses, callbacks,
// deferred records, the transactions in doubt, the open journal handle — is
// lost. The journal object itself survives on the device; Recover (after
// Restart) resolves every transaction from it.
func (pt *Participant) Crash() {
	pt.rpc.SetDown(true)
	pt.state = make(map[ID]*txnState)
	pt.doubt = nil
	pt.epoch++
	pt.log.Crash()
}

// Restart brings the RPC port back up after a Crash. The host service must
// run Recover from a service process before accepting new work.
func (pt *Participant) Restart() { pt.rpc.SetDown(false) }

// Status reports the local status of a transaction (StatusActive for
// unknown transactions, which have simply logged nothing here yet).
func (pt *Participant) Status(id ID) Status {
	if st, ok := pt.state[id]; ok {
		return st.status
	}
	return StatusActive
}

func (pt *Participant) ensure(id ID) *txnState {
	st, ok := pt.state[id]
	if !ok {
		st = &txnState{status: StatusActive}
		pt.state[id] = st
	}
	return st
}

// Log appends a write-ahead record for the transaction. Host services call
// it before applying any provisional change.
func (pt *Participant) Log(p *sim.Proc, rec JournalRecord) error {
	if st := pt.ensure(rec.Txn); st.status != StatusActive {
		return statusErr(ErrTerminal, rec.Txn, st.status)
	}
	// The line is built on this process's stack: the device copies it on
	// store (osd.Device.Append always copies; only Device.Write keeps a
	// frozen payload, and a path that may keep would move the line to the
	// heap), and a buffer shared by the participant would be overwritten by
	// another service thread while this one waits for the disk. Log appends
	// it itself rather than through mark, so a service thread parked in the
	// journal write carries one participant frame, not two.
	var line [128]byte
	return pt.log.Append(p, netsim.BytesPayload(rec.appendTo(line[:0])))
}

// Defer keeps a record for the transaction's vote instead of writing it
// now: it rides the participant's prepare append or, at the decision site,
// its decide append. A host service whose state is volatile anyway (naming)
// defers; one that must find its records after a crash it did not vote
// before (storage, whose objects outlive the crash) logs them.
func (pt *Participant) Defer(rec JournalRecord) error {
	st := pt.ensure(rec.Txn)
	if st.status != StatusActive {
		return statusErr(ErrTerminal, rec.Txn, st.status)
	}
	if st.deferred == nil {
		if n := len(pt.bufs); n > 0 {
			st.deferred, pt.bufs = pt.bufs[n-1], pt.bufs[:n-1]
		} else {
			st.deferred = new([]byte)
		}
	}
	*st.deferred = rec.appendTo(*st.deferred)
	return nil
}

// mark appends a detail-less protocol record (commit, abort): at most 20
// digits, a space, the kind, a space and a newline.
func (pt *Participant) mark(p *sim.Proc, id ID, kind string) error {
	var line [32]byte
	return pt.log.Append(p, netsim.BytesPayload(appendMark(line[:0], id, kind, Endpoint{})))
}

// vote makes a vote durable: the transaction's deferred records and its
// kind record — a prepare naming site, or the site's commit — in one
// journal append, then one flush barrier.
func (pt *Participant) vote(p *sim.Proc, st *txnState, id ID, kind string, site Endpoint) (err error) {
	if d := st.deferred; d == nil {
		var line [64]byte
		err = pt.log.Append(p, netsim.BytesPayload(appendMark(line[:0], id, kind, site)))
	} else {
		st.deferred = nil
		*d = appendMark(*d, id, kind, site)
		err = pt.log.Append(p, netsim.BytesPayload(*d))
		*d = (*d)[:0]
		pt.bufs = append(pt.bufs, d)
	}
	if err != nil {
		return err
	}
	pt.dev.Sync(p)
	return nil
}

// statusErr wraps err with the transaction's status. It stays out of line:
// inlined, its formatting temporaries would sit on the stack of every
// service thread parked in a journal write.
//
//go:noinline
func statusErr(err error, id ID, s Status) error { return fmt.Errorf("%w: %v is %v", err, id, s) }

// OnCommit registers a callback to run if the transaction commits.
func (pt *Participant) OnCommit(id ID, fn func(p *sim.Proc)) {
	pt.ensure(id).onCommit = append(pt.ensure(id).onCommit, fn)
}

// OnAbort registers a callback to undo provisional work if the transaction
// aborts. Callbacks run in reverse registration order.
func (pt *Participant) OnAbort(id ID, fn func(p *sim.Proc)) {
	pt.ensure(id).onAbort = append(pt.ensure(id).onAbort, fn)
}

// The participant's operations, and its handler table.
var (
	opPrepare = portals.NewOp[prepareReq, struct{}]()
	opDecide  = portals.NewOp[decideReq, struct{}]()
	opCommit  = portals.NewOp[commitReq, struct{}]()
	opAbort   = portals.NewOp[abortReq, struct{}]()
	opStatus  = portals.NewOp[statusReq, Status]()

	participantOps = portals.NewOps(
		portals.Handle(opPrepare, func(pt *Participant, p *sim.Proc, _ netsim.NodeID, r *prepareReq) (struct{}, error) {
			return struct{}{}, pt.prepare(p, r.Txn, r.Site)
		}),
		portals.Handle(opDecide, func(pt *Participant, p *sim.Proc, _ netsim.NodeID, r *decideReq) (struct{}, error) {
			return struct{}{}, pt.decide(p, r.Txn)
		}),
		portals.Handle(opCommit, func(pt *Participant, p *sim.Proc, _ netsim.NodeID, r *commitReq) (struct{}, error) {
			return struct{}{}, pt.commit(p, r.Txn)
		}),
		portals.Handle(opAbort, func(pt *Participant, p *sim.Proc, _ netsim.NodeID, r *abortReq) (struct{}, error) {
			return struct{}{}, pt.abort(p, r.Txn)
		}),
		portals.Handle(opStatus, func(pt *Participant, p *sim.Proc, _ netsim.NodeID, r *statusReq) (Status, error) {
			return pt.status(p, r.Txn)
		}),
	)
)

// prepare flushes the journal and votes. A yes vote is a durable promise:
// after it, only the decision at site determines the outcome.
func (pt *Participant) prepare(p *sim.Proc, id ID, site Endpoint) error {
	st := pt.ensure(id)
	switch st.status {
	case StatusPrepared:
		return nil // idempotent retry
	case StatusCommitted, StatusAborted:
		return statusErr(ErrTerminal, id, st.status)
	}
	if pt.FailPrepare != nil && pt.FailPrepare(id) || pt.vote(p, st, id, "prepare", site) != nil {
		pt.abortLocal(p, id, st)
		return ErrVoteNo
	}
	st.status = StatusPrepared
	pt.prepares.Inc()
	return nil
}

// decide is the decision site's vote and the transaction's commit point:
// the site's deferred records and its commit record reach the journal in
// one append, under one flush barrier. While that write is in flight the
// status reads prepared, so a status ask waits for the decision instead of
// aborting under it. A site that already resolved the transaction aborted —
// a status ask or its recovery presumed abort — refuses.
func (pt *Participant) decide(p *sim.Proc, id ID) error {
	st := pt.ensure(id)
	if st.status == StatusPrepared {
		if err := pt.await(p, id, st); err != nil {
			return err
		}
	}
	switch st.status {
	case StatusCommitted:
		return nil // idempotent
	case StatusAborted:
		return statusErr(ErrTerminal, id, st.status)
	}
	if pt.FailPrepare != nil && pt.FailPrepare(id) {
		pt.abortLocal(p, id, st)
		return ErrVoteNo
	}
	st.status = StatusPrepared
	if err := pt.vote(p, st, id, "commit", Endpoint{}); err != nil {
		pt.abortLocal(p, id, st)
		return ErrVoteNo
	}
	pt.committed(p, st)
	return nil
}

// decisionPoll is how often a status ask or a duplicate decide looks again
// at a decision still in flight: a journal append and a barrier, under a
// millisecond.
const decisionPoll = time.Millisecond

// await waits while the site's decision on st is in flight. A crash
// meanwhile replaces the state: the asker is told to ask again.
func (pt *Participant) await(p *sim.Proc, id ID, st *txnState) error {
	for st.status == StatusPrepared {
		p.Sleep(decisionPoll)
		if pt.state[id] != st {
			return ErrInDoubt
		}
	}
	return nil
}

// status answers a status ask at the decision site with its decision. A
// transaction it never decided, it aborts first, the abort record logged
// before the answer leaves, so a decide arriving later is refused and cannot
// contradict the answer.
func (pt *Participant) status(p *sim.Proc, id ID) (Status, error) {
	st := pt.ensure(id)
	if st.status == StatusPrepared {
		if err := pt.await(p, id, st); err != nil {
			return 0, err
		}
	}
	if st.status == StatusActive {
		pt.abortLocal(p, id, st)
	}
	return st.status, nil
}

func (pt *Participant) commit(p *sim.Proc, id ID) error {
	st := pt.ensure(id)
	switch st.status {
	case StatusCommitted:
		return nil // idempotent
	case StatusActive:
		return statusErr(ErrNotPrepared, id, st.status)
	case StatusAborted:
		return statusErr(ErrTerminal, id, st.status)
	}
	// Committed before the record is written: a second delivery (the
	// coordinator's helper and this participant's own recovery may both
	// bring the outcome) answers at once instead of running the callbacks
	// again.
	st.status = StatusCommitted
	if err := pt.mark(p, id, "commit"); err != nil {
		st.status = StatusPrepared
		return err
	}
	pt.committed(p, st)
	return nil
}

// committed runs the commit callbacks of a transaction whose commit record
// is written.
func (pt *Participant) committed(p *sim.Proc, st *txnState) {
	st.status = StatusCommitted
	for _, fn := range st.onCommit {
		fn(p)
	}
	st.release()
	pt.commits.Inc()
}

func (pt *Participant) abort(p *sim.Proc, id ID) error {
	st := pt.ensure(id)
	switch st.status {
	case StatusAborted:
		return nil // idempotent
	case StatusCommitted:
		return statusErr(ErrTerminal, id, st.status)
	}
	pt.abortLocal(p, id, st)
	return nil
}

// abortLocal logs the abort and undoes the provisional work. The status is
// aborted before the record is written, so neither a decide nor a second
// abort can come between.
func (pt *Participant) abortLocal(p *sim.Proc, id ID, st *txnState) {
	st.status = StatusAborted
	pt.mark(p, id, "abort") //nolint:errcheck
	for i := len(st.onAbort) - 1; i >= 0; i-- {
		st.onAbort[i](p)
	}
	st.release()
	pt.aborts.Inc()
}

// The schedule of asking a decision site again: each ask waits askTimeout
// for the answer, and askTries asks are spaced by pauses doubling from
// askPause (about 100 s in all). A transaction still in doubt after that
// waits for the coordinator's delivery or the next Recover.
const (
	askTimeout = 100 * time.Millisecond
	askPause   = 100 * time.Millisecond
	askTries   = 11
)

// patiently runs try until it reports done, at most askTries times, pausing
// between tries on the ask schedule. It reports whether try succeeded.
func patiently(p *sim.Proc, try func() bool) bool {
	pause := askPause
	for i := 1; !try(); i++ {
		if i == askTries {
			return false
		}
		p.Sleep(pause)
		pause *= 2
	}
	return true
}

// askSite asks site for its decision on id, once.
func askSite(c *portals.Caller, p *sim.Proc, site Endpoint, id ID) (Status, error) {
	return portals.InvokeTimeout(c, p, site.Node, site.Port, opStatus, &statusReq{Txn: id}, txnReqSize, 16, askTimeout)
}

// Recover replays the journal after a restart and resolves every
// transaction seen: a commit or abort record decides; a prepare naming its
// decision site asks the site (the status RPC); anything else presumes
// abort. A transaction whose site does not answer stays prepared — its work
// kept, counted in the in_doubt gauge — and a daemon asks again on the ask
// schedule, delivering the answer (and so running the callbacks the host
// service registers for it) when it comes. The state table reflects the
// outcomes, and the records plus outcomes are returned so the host service
// can undo orphaned provisional work (e.g. remove objects created by
// aborted transactions) and guard what is still in doubt.
func (pt *Participant) Recover(p *sim.Proc) ([]JournalRecord, map[ID]Status, error) {
	pt.log.open(p)
	recs, err := pt.ReadJournal(p)
	if err != nil {
		return nil, nil, err
	}
	outcomes := Outcomes(recs)
	for id, st := range outcomes {
		pt.ensure(id).status = st
	}
	pt.epoch++
	pt.doubt = pt.doubt[:0]
	var down []Endpoint // sites that did not answer this pass: not asked again
	for i := range recs {
		site, ok := siteOf(&recs[i])
		id := recs[i].Txn
		if !ok || pt.Status(id) != StatusPrepared {
			continue
		}
		if !slices.Contains(down, site) && pt.resolve(p, id, site) {
			outcomes[id] = pt.Status(id)
			continue
		}
		down = append(down, site)
		pt.doubt = append(pt.doubt, doubtful{id: id, site: site})
	}
	if len(pt.doubt) > 0 {
		pt.askLater()
	}
	return recs, outcomes, nil
}

// resolve asks site once for its decision on the prepared id and applies
// the answer. It reports whether the site answered.
func (pt *Participant) resolve(p *sim.Proc, id ID, site Endpoint) bool {
	if pt.caller == nil {
		pt.caller = portals.NewCaller(pt.ep)
	}
	s, err := askSite(pt.caller, p, site, id)
	if err != nil {
		return false
	}
	if s == StatusCommitted {
		pt.commit(p, id) //nolint:errcheck
	} else {
		pt.abort(p, id) //nolint:errcheck
	}
	return true
}

// askLater starts the daemon that asks the sites of the transactions still
// in doubt again, on the ask schedule, until none is left. A crash or a
// later Recover retires it.
func (pt *Participant) askLater() {
	epoch := pt.epoch
	pt.ep.Kernel().SpawnDaemon(pt.dev.Name()+"/in-doubt", func(q *sim.Proc) {
		q.Sleep(askPause)
		patiently(q, func() bool {
			for i := 0; i < len(pt.doubt) && pt.epoch == epoch; i++ {
				if d := pt.doubt[i]; pt.Status(d.id) == StatusPrepared {
					pt.resolve(q, d.id, d.site)
				}
			}
			if pt.epoch != epoch {
				return true
			}
			pt.doubt = slices.DeleteFunc(pt.doubt, func(d doubtful) bool { return pt.Status(d.id) != StatusPrepared })
			return len(pt.doubt) == 0
		})
	})
}

// ReadJournal reads back every journal record (recovery and tests).
func (pt *Participant) ReadJournal(p *sim.Proc) ([]JournalRecord, error) {
	st, err := pt.dev.Stat(JournalObjectID)
	if err != nil {
		return nil, nil // never written
	}
	payload, err := pt.dev.Read(p, JournalObjectID, 0, st.Size)
	if err != nil {
		return nil, err
	}
	return parseJournal(payload.Bytes()), nil
}

func parseJournal(data []byte) []JournalRecord {
	var recs []JournalRecord
	start := 0
	for i := 0; i < len(data); i++ {
		if data[i] != '\n' {
			continue
		}
		line := string(data[start:i])
		start = i + 1
		// Only the first two spaces separate fields; Detail keeps its own.
		idStr, rest, _ := strings.Cut(line, " ")
		id, err := strconv.ParseUint(idStr, 10, 64)
		if err != nil {
			continue
		}
		kind, detail, _ := strings.Cut(rest, " ")
		if kind == "" {
			continue
		}
		recs = append(recs, JournalRecord{Txn: ID(id), Kind: kind, Detail: detail})
	}
	return recs
}

// Outcomes scans journal records and reports the status of each transaction
// seen — the recovery decision procedure. The last commit or abort record
// wins. A transaction with neither is prepared, in doubt, if it has a
// prepare naming its decision site (only the site knows the outcome), and
// aborted otherwise (presumed abort: it never voted yes, or it is the site
// and never decided).
func Outcomes(recs []JournalRecord) map[ID]Status {
	out := make(map[ID]Status)
	for i := range recs {
		if _, ok := siteOf(&recs[i]); ok {
			out[recs[i].Txn] = StatusPrepared
		} else if _, seen := out[recs[i].Txn]; !seen {
			out[recs[i].Txn] = StatusAborted
		}
	}
	for _, r := range recs {
		switch r.Kind {
		case "commit":
			out[r.Txn] = StatusCommitted
		case "abort":
			out[r.Txn] = StatusAborted
		}
	}
	return out
}

// Coordinator starts transactions and drives two-phase commit from a client
// node.
type Coordinator struct {
	caller  *portals.Caller
	nextSeq uint32
}

// NewCoordinator creates a coordinator sending from caller's endpoint.
func NewCoordinator(caller *portals.Caller) *Coordinator {
	return &Coordinator{caller: caller}
}

// Txn is one distributed transaction in progress.
type Txn struct {
	ID           ID
	c            *Coordinator
	participants []Endpoint
	done         bool
}

// Begin starts a transaction (the paper's BEGINTXN).
func (c *Coordinator) Begin() *Txn {
	c.nextSeq++
	id := ID(uint64(c.caller.Endpoint().Node())<<32 | uint64(c.nextSeq))
	return &Txn{ID: id, c: c}
}

// Enlist records a participant. Enlisting twice is harmless. The last
// participant enlisted when Commit runs is the decision site: a caller
// whose transaction names something (naming) enlists it last.
func (t *Txn) Enlist(e Endpoint) {
	for _, x := range t.participants {
		if x == e {
			return
		}
	}
	t.participants = append(t.participants, e)
}

// Delist removes a participant enlisted earlier, so that a crashed server's
// vote cannot decide the transaction; its provisional records resolve by
// presumed abort on its recovery. core.Placement decides when.
func (t *Txn) Delist(e Endpoint) {
	t.participants = slices.DeleteFunc(t.participants, func(x Endpoint) bool { return x == e })
}

// PrepareFirst moves an enlisted participant to the front, so it is
// prepared first and is the decision site only when it is the only
// participant: one known to be unreachable then fails its prepare and
// aborts the transaction, where as the site it would leave it in doubt.
// core.Placement decides when.
func (t *Txn) PrepareFirst(e Endpoint) {
	if i := slices.Index(t.participants, e); i > 0 {
		copy(t.participants[1:i+1], t.participants[:i])
		t.participants[0] = e
	}
}

const txnReqSize = 96

// Commit runs two-phase commit (the paper's ENDTXN) with the last
// participant enlisted as the decision site. It prepares the others in
// enlistment order, each prepare record naming the site; then one decide
// request has the site vote and commit in a single journal write, the
// commit point; then it delivers the commit to the others in order. A no
// vote, or a refused decide, aborts everyone and returns ErrAborted. A
// decide that gets no answer returns ErrInDoubt and leaves a helper that
// asks the site and delivers what it decided. Once the site has decided,
// Commit returns nil: a delivery that fails is retried by a helper, and a
// participant that stays unreachable asks the site itself when it recovers.
func (t *Txn) Commit(p *sim.Proc) error {
	if t.done {
		return ErrTerminal
	}
	t.done = true
	n := len(t.participants)
	if n == 0 {
		return nil
	}
	others, site := t.participants[:n-1], t.participants[n-1]
	for _, e := range others {
		if _, err := portals.Invoke(t.c.caller, p, e.Node, e.Port, opPrepare, &prepareReq{Txn: t.ID, Site: site}, txnReqSize, 16); err != nil {
			t.abortAll(p)
			return fmt.Errorf("%w: prepare at node %d: %v", ErrAborted, e.Node, err)
		}
	}
	if _, err := portals.Invoke(t.c.caller, p, site.Node, site.Port, opDecide, &decideReq{Txn: t.ID}, txnReqSize, 16); err != nil {
		if portals.FailStop(err) {
			t.askLater(p.Kernel(), site, others)
			return fmt.Errorf("%w: no decision from node %d", ErrInDoubt, site.Node)
		}
		t.abortAll(p) // a site that never saw the decide (shed) aborts too
		return fmt.Errorf("%w: decide at node %d: %v", ErrAborted, site.Node, err)
	}
	for _, e := range others {
		if _, err := portals.Invoke(t.c.caller, p, e.Node, e.Port, opCommit, &commitReq{Txn: t.ID}, txnReqSize, 16); err != nil {
			p.Kernel().Spawn(fmt.Sprintf("%v/commit", t.ID), func(q *sim.Proc) { t.deliver(q, e, StatusCommitted) })
		}
	}
	return nil
}

// askLater is Commit's helper after a decide that got no answer: it asks
// the site on the ask schedule, then delivers the answer to the others.
func (t *Txn) askLater(k *sim.Kernel, site Endpoint, others []Endpoint) {
	k.Spawn(fmt.Sprintf("%v/ask", t.ID), func(q *sim.Proc) {
		var s Status
		if !patiently(q, func() bool {
			var err error
			s, err = askSite(t.c.caller, q, site, t.ID)
			return err == nil
		}) {
			return // the others ask the site themselves when they recover
		}
		for _, e := range others {
			t.deliver(q, e, s)
		}
	})
}

// deliver sends outcome s to e on the ask schedule until e answers.
func (t *Txn) deliver(p *sim.Proc, e Endpoint, s Status) {
	patiently(p, func() bool {
		var err error
		if s == StatusCommitted {
			_, err = portals.InvokeTimeout(t.c.caller, p, e.Node, e.Port, opCommit, &commitReq{Txn: t.ID}, txnReqSize, 16, askTimeout)
		} else {
			_, err = portals.InvokeTimeout(t.c.caller, p, e.Node, e.Port, opAbort, &abortReq{Txn: t.ID}, txnReqSize, 16, askTimeout)
		}
		return !portals.FailStop(err)
	})
}

// Abort aborts the transaction at every participant.
func (t *Txn) Abort(p *sim.Proc) error {
	if t.done {
		return ErrTerminal
	}
	t.done = true
	t.abortAll(p)
	return nil
}

func (t *Txn) abortAll(p *sim.Proc) {
	// Abort is best effort and idempotent: a participant that cannot be
	// reached resolves the transaction itself on recovery (presumed abort,
	// or its site's answer). Deliveries happen from helper processes so an
	// unreachable participant cannot wedge the coordinator.
	k := p.Kernel()
	var wg sim.WaitGroup
	for _, e := range t.participants {
		e := e
		wg.Add(1)
		k.Spawn(fmt.Sprintf("%v/abort", t.ID), func(q *sim.Proc) {
			defer wg.Done()
			portals.InvokeTimeout(t.c.caller, q, e.Node, e.Port, opAbort, &abortReq{Txn: t.ID}, txnReqSize, 16, time.Second) //nolint:errcheck
		})
	}
	wg.Wait(p)
}
