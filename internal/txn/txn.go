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
//   - A Coordinator drives two-phase commit from the client: prepare
//     everywhere (journal flush + vote), then commit (or abort) everywhere.
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
)

// JournalRecord is one durable journal entry. Records are written to the
// journal object before state changes are applied (write-ahead).
type JournalRecord struct {
	Txn    ID
	Kind   string // "begin", "create", "write", "name", "prepare", "commit", "abort"
	Detail string
}

// appendTo appends the record's journal line, "<txn> <kind> <detail>\n", to
// buf. Kind holds no space or newline; Detail may hold spaces (naming logs
// raw paths) but no newline, which would end the record early (naming
// refuses such paths).
func (r *JournalRecord) appendTo(buf []byte) []byte {
	buf = strconv.AppendUint(buf, uint64(r.Txn), 10)
	buf = append(buf, ' ')
	buf = append(buf, r.Kind...)
	buf = append(buf, ' ')
	buf = append(buf, r.Detail...)
	return append(buf, '\n')
}

// participant RPC bodies

type prepareReq struct{ Txn ID }
type commitReq struct{ Txn ID }
type abortReq struct{ Txn ID }

type txnState struct {
	status   Status
	onCommit []func(p *sim.Proc)
	onAbort  []func(p *sim.Proc)
}

// release drops the callbacks of a transaction that reached a terminal
// status: only the status is needed from then on (idempotent retries), and
// the closures would otherwise pin whatever provisional objects they
// captured for the life of the server.
func (st *txnState) release() { st.onCommit, st.onAbort = nil, nil }

// Participant is the server-side half of two-phase commit, colocated with a
// durable service. It owns a journal object on the service's device.
type Participant struct {
	dev   *osd.Device
	rpc   *portals.Server
	log   *Journal
	state map[ID]*txnState

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
		dev:   dev,
		log:   NewJournal(dev, JournalObjectID),
		state: make(map[ID]*txnState),
	}
	tx := ep.Metrics().Scope("txn").Scope(dev.Name())
	pt.prepares = tx.Counter("prepares")
	pt.commits = tx.Counter("commits")
	pt.aborts = tx.Counter("aborts")
	pt.rpc = portals.ServeOps(ep, port, dev.Name()+"/txn", 2, participantOps, pt)
	return pt
}

// Crash models a fail-stop of the participant's process: the RPC port stops
// answering, and all volatile state — transaction statuses, callbacks, the
// open journal handle — is lost. The journal object itself survives on the
// device; Recover (after Restart) resolves every in-doubt transaction from
// it by presumed abort.
func (pt *Participant) Crash() {
	pt.rpc.SetDown(true)
	pt.state = make(map[ID]*txnState)
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

// mark appends a detail-less protocol record (prepare, commit, abort): at
// most 20 digits, a space, the kind, a space and a newline.
func (pt *Participant) mark(p *sim.Proc, id ID, kind string) error {
	rec := JournalRecord{Txn: id, Kind: kind}
	var line [32]byte
	return pt.log.Append(p, netsim.BytesPayload(rec.appendTo(line[:0])))
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
	opCommit  = portals.NewOp[commitReq, struct{}]()
	opAbort   = portals.NewOp[abortReq, struct{}]()

	participantOps = portals.NewOps(
		portals.Handle(opPrepare, func(pt *Participant, p *sim.Proc, _ netsim.NodeID, r *prepareReq) (struct{}, error) {
			return struct{}{}, pt.prepare(p, r.Txn)
		}),
		portals.Handle(opCommit, func(pt *Participant, p *sim.Proc, _ netsim.NodeID, r *commitReq) (struct{}, error) {
			return struct{}{}, pt.commit(p, r.Txn)
		}),
		portals.Handle(opAbort, func(pt *Participant, p *sim.Proc, _ netsim.NodeID, r *abortReq) (struct{}, error) {
			return struct{}{}, pt.abort(p, r.Txn)
		}),
	)
)

// prepare flushes the journal and votes. A yes vote is a durable promise:
// after it, only the coordinator's decision determines the outcome.
func (pt *Participant) prepare(p *sim.Proc, id ID) error {
	st := pt.ensure(id)
	switch st.status {
	case StatusPrepared:
		return nil // idempotent retry
	case StatusCommitted, StatusAborted:
		return statusErr(ErrTerminal, id, st.status)
	}
	if pt.FailPrepare != nil && pt.FailPrepare(id) {
		pt.abortLocal(p, id, st)
		return ErrVoteNo
	}
	if err := pt.mark(p, id, "prepare"); err != nil {
		pt.abortLocal(p, id, st)
		return ErrVoteNo
	}
	pt.dev.Sync(p)
	st.status = StatusPrepared
	pt.prepares.Inc()
	return nil
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
	if err := pt.mark(p, id, "commit"); err != nil {
		return err
	}
	for _, fn := range st.onCommit {
		fn(p)
	}
	st.status = StatusCommitted
	st.release()
	pt.commits.Inc()
	return nil
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

func (pt *Participant) abortLocal(p *sim.Proc, id ID, st *txnState) {
	pt.mark(p, id, "abort") //nolint:errcheck
	for i := len(st.onAbort) - 1; i >= 0; i-- {
		st.onAbort[i](p)
	}
	st.status = StatusAborted
	st.release()
	pt.aborts.Inc()
}

// Recover replays the journal after a restart: every transaction seen is
// resolved (commit/abort records win; bare prepares and actives presume
// abort), the participant's state table reflects the outcomes, and the
// records plus outcomes are returned so the host service can undo orphaned
// provisional work (e.g. remove objects created by aborted transactions).
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
	return recs, outcomes, nil
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

// Outcomes scans journal records and reports the terminal status of each
// transaction seen — the recovery decision procedure: the last commit or
// abort record wins, and a transaction with neither, even a prepared one,
// resolves to aborted (presumed abort).
func Outcomes(recs []JournalRecord) map[ID]Status {
	out := make(map[ID]Status)
	for _, r := range recs {
		switch r.Kind {
		case "commit":
			out[r.Txn] = StatusCommitted
		case "abort":
			out[r.Txn] = StatusAborted
		default:
			if _, ok := out[r.Txn]; !ok {
				out[r.Txn] = StatusAborted
			}
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

// Enlist records a participant. Enlisting twice is harmless.
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

const txnReqSize = 96

// Commit runs two-phase commit (the paper's ENDTXN): prepare at every
// participant; if all vote yes, commit everywhere, else abort everywhere
// and return ErrAborted.
func (t *Txn) Commit(p *sim.Proc) error {
	if t.done {
		return ErrTerminal
	}
	t.done = true
	for _, e := range t.participants {
		if _, err := portals.Invoke(t.c.caller, p, e.Node, e.Port, opPrepare, &prepareReq{Txn: t.ID}, txnReqSize, 16); err != nil {
			t.abortAll(p)
			return fmt.Errorf("%w: prepare at node %d: %v", ErrAborted, e.Node, err)
		}
	}
	for _, e := range t.participants {
		if _, err := portals.Invoke(t.c.caller, p, e.Node, e.Port, opCommit, &commitReq{Txn: t.ID}, txnReqSize, 16); err != nil {
			// A prepared participant that errors on commit is a protocol
			// violation in this fail-stop model; surface it loudly.
			return fmt.Errorf("txn: commit at node %d after successful prepare: %v", e.Node, err)
		}
	}
	return nil
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
	// reached resolves the transaction itself via presumed abort on
	// recovery (Outcomes). Deliveries happen from helper processes so an
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
