package burst

import (
	"errors"
	"fmt"

	"lwfs/internal/authz"
	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
)

// The staging journal (LWFS §3.4 applied to the burst tier): in journaled
// mode every staged extent is appended — header plus payload — to a
// write-ahead journal object on a buffer-local device *before* the client is
// acknowledged, so the ack is a durability promise the buffer can keep
// across a crash. The journal is a flat append log:
//
//	record   := header payload?
//	header   := fixed jHeaderSize bytes, one text line, zero-padded
//	kinds    := "stage"   staged extent, payload of Len bytes follows
//	            "durable" pass-through completion, no payload (the data is
//	                      already on the storage partition; the record only
//	                      lets recovery vouch for the ref in DrainWait)
//	            "drained" completion marker for an earlier "stage" Seq, no
//	                      payload (written without a flush barrier: losing
//	                      one costs an idempotent re-drain, never data)
//	            "adopted" fencing marker appended by a *peer* buffer that
//	                      re-staged this journal's undrained records onto
//	                      itself (AdoptJournal); covers every seq <= Seq
//
// Adoption (restage.go): when a journaled buffer dies and cannot be
// restarted promptly, a peer can call AdoptJournal on the dead buffer's
// journal device, re-stage the undrained extents into its own window (and
// its own journal), and vouch for them through its own DrainWait. The
// "adopted" marker it leaves behind fences the original owner: a later
// Restart replays around the adopted records instead of re-queueing them.
//
// Recovery (Server.Restart) walks the log: "stage" records without a
// matching "drained" marker are re-staged — payload re-read from the journal
// (real bytes or a size-only ReadSynthetic), bookkeeping rebuilt, extent
// re-queued for the drainers under the *new* epoch — and the drain resumes
// where the dead incarnation stopped. Re-draining an extent whose storage
// write had already landed is idempotent (same bytes, same offset).
//
// Epoch fencing: markers are appended by drain workers, and a worker that
// was mid-drain when the buffer crashed must not invalidate (mark drained /
// truncate) a record the new incarnation has re-queued. Every extent carries
// the epoch it was (re-)staged under; a worker whose extent's epoch is stale
// drops the completion on the floor — the journal only ever hears from the
// incarnation that owns the record.
//
// Truncation: the journal is truncated to zero at a quiesce point — no
// staged record un-drained — but only once it has grown past twice the
// staging window (Config.journalRetain). The hysteresis keeps recent
// history around: a crash after the drains completed but before the
// checkpoint's commit gate ran can still vouch for the refs (via the
// retained stage+drained pairs) instead of degenerating to ErrLost.

// journalObjectID is the well-known ID of a buffer's staging journal on its
// journal device (the txn participant journal owns ReservedIDBase+1).
const journalObjectID = osd.ReservedIDBase + 2

// journalContainer tags the journal object; container 0 is reserved for
// system state and never issued by the authorization service.
const journalContainer osd.ContainerID = 0

// jHeaderSize is the fixed on-disk size of one record header. Headers are
// written as real bytes so recovery can parse them back.
const jHeaderSize = 256

// journal record kinds.
const (
	jKindStage   = "stage"
	jKindDurable = "durable"
	jKindDrained = "drained"
	// jKindAdopted is appended to a *foreign* journal by AdoptJournal: a
	// peer buffer took ownership of every record with seq <= this record's
	// seq. The marker fences the original owner: should it restart later,
	// replayJournal skips the adopted records instead of re-queueing them —
	// two buffers must never both claim responsibility for one extent. The
	// ref field names the adopter (node, rpc port), for the record.
	jKindAdopted = "adopted"
)

// jrec is one parsed journal record.
type jrec struct {
	seq        uint64
	kind       string
	epoch      uint64
	ref        storage.ObjRef
	off        int64
	length     int64
	real       bool
	cap        capFields
	payloadOff int64 // device offset of the payload region (stage records)
}

// capFields flattens the capability a stage record was admitted under, so a
// recovered extent can re-authenticate its drain writes exactly as the
// original would have.
type capFields struct {
	Container uint64
	Op        uint8
	ID        uint64
	Expires   int64
	Sig       [32]byte
}

func capToFields(c authz.Capability) capFields {
	return capFields{
		Container: uint64(c.Container),
		Op:        uint8(c.Op),
		ID:        c.ID,
		Expires:   int64(c.Expires),
		Sig:       c.Sig,
	}
}

func (f capFields) cap() authz.Capability {
	return authz.Capability{
		Container: authz.ContainerID(f.Container),
		Op:        authz.Op(f.Op),
		ID:        f.ID,
		Expires:   sim.Time(f.Expires),
		Sig:       f.Sig,
	}
}

// encodeHeader renders a record header as one zero-padded line.
func encodeHeader(r jrec) []byte {
	realFlag := 0
	if r.real {
		realFlag = 1
	}
	line := fmt.Sprintf("bj1 seq=%d kind=%s epoch=%d node=%d port=%d obj=%d off=%d len=%d real=%d cont=%d capop=%d capid=%d exp=%d sig=%x\n",
		r.seq, r.kind, r.epoch, int(r.ref.Node), int(r.ref.Port), uint64(r.ref.ID),
		r.off, r.length, realFlag,
		r.cap.Container, r.cap.Op, r.cap.ID, r.cap.Expires, r.cap.Sig)
	if len(line) > jHeaderSize {
		panic(fmt.Sprintf("burst: journal header %d bytes exceeds %d", len(line), jHeaderSize))
	}
	buf := make([]byte, jHeaderSize)
	copy(buf, line)
	return buf
}

// decodeHeader parses a header region back into a record.
func decodeHeader(b []byte) (jrec, error) {
	end := 0
	for end < len(b) && b[end] != '\n' {
		end++
	}
	var (
		r                    jrec
		node, port, realFlag int
		obj                  uint64
		op                   int
		sig                  string
	)
	n, err := fmt.Sscanf(string(b[:end]),
		"bj1 seq=%d kind=%s epoch=%d node=%d port=%d obj=%d off=%d len=%d real=%d cont=%d capop=%d capid=%d exp=%d sig=%s",
		&r.seq, &r.kind, &r.epoch, &node, &port, &obj,
		&r.off, &r.length, &realFlag,
		&r.cap.Container, &op, &r.cap.ID, &r.cap.Expires, &sig)
	if err != nil || n != 14 {
		return jrec{}, fmt.Errorf("burst: bad journal header %q: %w", string(b[:end]), err)
	}
	r.ref = storage.ObjRef{Node: netsim.NodeID(node), Port: portals.Index(port), ID: osd.ObjectID(obj)}
	r.real = realFlag == 1
	r.cap.Op = uint8(op)
	if _, err := fmt.Sscanf(sig, "%x", sliceScanner(r.cap.Sig[:])); err != nil {
		return jrec{}, fmt.Errorf("burst: bad journal signature %q: %w", sig, err)
	}
	return r, nil
}

// sliceScanner lets Sscanf %x fill a fixed byte slice in place.
type sliceScanner []byte

func (s sliceScanner) Scan(state fmt.ScanState, verb rune) error {
	tok, err := state.Token(true, nil)
	if err != nil {
		return err
	}
	if len(tok) != 2*len(s) {
		return fmt.Errorf("hex token length %d, want %d", len(tok), 2*len(s))
	}
	for i := 0; i < len(s); i++ {
		var b byte
		if _, err := fmt.Sscanf(string(tok[2*i:2*i+2]), "%02x", &b); err != nil {
			return err
		}
		s[i] = b
	}
	return nil
}

// ensureJournal opens the buffer's journal object, creating it on first use
// and adopting one left by a crashed predecessor.
func (s *Server) ensureJournal(p *sim.Proc) {
	if s.jopen {
		return
	}
	if _, err := s.jdev.CreateWithID(p, journalObjectID, journalContainer); err != nil && !errors.Is(err, osd.ErrExists) {
		panic(fmt.Sprintf("burst: creating journal: %v", err))
	}
	if st, err := s.jdev.Stat(journalObjectID); err == nil && st.Size > s.jOff {
		s.jOff = st.Size
	}
	s.jopen = true
}

// journalStage makes one staged extent durable before its ack: header plus
// payload appended, then a flush barrier on the journal device. Returns the
// record's sequence number.
func (s *Server) journalStage(p *sim.Proc, r stageReq, payload netsim.Payload) (uint64, error) {
	s.ensureJournal(p)
	s.jseq++
	rec := jrec{
		seq:    s.jseq,
		kind:   jKindStage,
		epoch:  s.epoch,
		ref:    r.Ref,
		off:    r.Off,
		length: payload.Size,
		real:   payload.Data != nil,
		cap:    capToFields(r.Cap),
	}
	hdrOff := s.jOff
	s.jOff += jHeaderSize + payload.Size
	if err := s.jdev.Write(p, journalObjectID, hdrOff, netsim.BytesPayload(encodeHeader(rec))); err != nil {
		return 0, err
	}
	if err := s.jdev.Write(p, journalObjectID, hdrOff+jHeaderSize, payload); err != nil {
		return 0, err
	}
	s.jdev.Sync(p)
	s.jlive++
	return rec.seq, nil
}

// journalDurable records a pass-through completion, so recovery can vouch
// for the ref in DrainWait even though nothing was staged. The data is
// already durable on the storage partition; the barrier keeps the record
// ordered ahead of the ack like any other staging promise.
func (s *Server) journalDurable(p *sim.Proc, ref storage.ObjRef) error {
	s.ensureJournal(p)
	s.jseq++
	rec := jrec{seq: s.jseq, kind: jKindDurable, epoch: s.epoch, ref: ref}
	off := s.jOff
	s.jOff += jHeaderSize
	if err := s.jdev.Write(p, journalObjectID, off, netsim.BytesPayload(encodeHeader(rec))); err != nil {
		return err
	}
	s.jdev.Sync(p)
	return nil
}

// journalDrained marks a stage record complete and truncates the journal at
// a quiesce point once it has outgrown the retain threshold. No flush
// barrier: a lost marker is re-drained idempotently on recovery.
func (s *Server) journalDrained(p *sim.Proc, seq uint64) {
	s.ensureJournal(p)
	s.jseq++
	rec := jrec{seq: seq, kind: jKindDrained, epoch: s.epoch}
	off := s.jOff
	s.jOff += jHeaderSize
	if err := s.jdev.Write(p, journalObjectID, off, netsim.BytesPayload(encodeHeader(rec))); err != nil {
		return
	}
	if s.jlive > 0 {
		s.jlive--
	}
	if s.jlive == 0 && s.jOff >= s.cfg.journalRetain() {
		if err := s.jdev.Truncate(p, journalObjectID, 0); err == nil {
			s.jOff = 0
			s.truncations.Inc()
		}
	}
}

// replayJournal is crash recovery: rebuild the staging bookkeeping from the
// journal and re-queue every staged-but-unmarked extent for the drainers
// under the current (post-crash) epoch. Returns the number of extents whose
// drain was resumed.
func (s *Server) replayJournal(p *sim.Proc) (recovered int, err error) {
	s.jopen = false
	s.jOff = 0
	s.jseq = 0
	s.jlive = 0
	st, err := s.jdev.Stat(journalObjectID)
	if errors.Is(err, osd.ErrNoObject) {
		return 0, nil // nothing ever staged here
	}
	if err != nil {
		return 0, err
	}
	var staged []jrec
	drained := make(map[uint64]bool)
	var adoptedThrough uint64
	for off := int64(0); off+jHeaderSize <= st.Size; {
		hdr, err := s.jdev.Read(p, journalObjectID, off, jHeaderSize)
		if err != nil {
			return 0, err
		}
		rec, err := decodeHeader(hdr.Data)
		if err != nil {
			return 0, err
		}
		switch rec.kind {
		case jKindStage:
			rec.payloadOff = off + jHeaderSize
			staged = append(staged, rec)
			off += jHeaderSize + rec.length
		case jKindDrained:
			drained[rec.seq] = true
			off += jHeaderSize
		case jKindAdopted:
			if rec.seq > adoptedThrough {
				adoptedThrough = rec.seq
			}
			off += jHeaderSize
		default: // durable
			s.seen[rec.ref] = true
			off += jHeaderSize
		}
		if rec.seq > s.jseq {
			s.jseq = rec.seq
		}
	}
	s.jOff = st.Size
	s.jopen = true
	for _, rec := range staged {
		if drained[rec.seq] {
			// Drained by this buffer before the crash: the data is durable
			// on storage, so this incarnation can still vouch for the ref.
			s.seen[rec.ref] = true
			continue
		}
		if rec.seq <= adoptedThrough {
			// A peer adopted this record while we were down — it now owns
			// the extent's durability promise. Re-queueing it here would
			// put two buffers in charge of one extent; and we must not
			// vouch for the ref either, since only the adopter knows when
			// its re-staged copy actually drains.
			continue
		}
		s.seen[rec.ref] = true
		var payload netsim.Payload
		if rec.real {
			payload, err = s.jdev.Read(p, journalObjectID, rec.payloadOff, rec.length)
		} else {
			payload, err = s.jdev.ReadSynthetic(p, journalObjectID, rec.payloadOff, rec.length)
		}
		if err != nil {
			return recovered, err
		}
		s.jlive++
		s.stageAvail.Add(-rec.length)
		s.pending[rec.ref]++
		s.enqueue(extent{
			ref:      rec.ref,
			cap:      rec.cap.cap(),
			off:      rec.off,
			payload:  payload,
			stagedAt: p.Now(),
			epoch:    s.epoch,
			seq:      rec.seq,
		})
		recovered++
	}
	return recovered, nil
}
