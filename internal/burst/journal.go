package burst

import (
	"bytes"
	"encoding/binary"
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
// write-ahead journal on a buffer-local device *before* the client is
// acknowledged, so the ack is a durability promise the buffer can keep
// across a crash. The log itself is a txn.Journal, the one the transaction
// participant uses; this file keeps only the staging records, the walk that
// reads them back, epoch fencing and the truncation rule:
//
//	record   := header payload?
//	header   := fixed jHeaderSize bytes, binary (see header)
//	kinds    := stage    staged extent, payload of length bytes follows
//	            durable  pass-through completion, no payload (the data is
//	                     already on the storage partition; the record only
//	                     lets recovery vouch for the ref in DrainWait)
//	            drained  completion marker for an earlier stage seq, no
//	                     payload (written without a flush barrier: losing
//	                     one costs an idempotent re-drain, never data)
//
// Recovery (Server.Restart) is one walk (walkJournal): stage records without
// a drained marker are re-staged — payload re-read from the journal (real
// bytes or a size-only ReadSynthetic), bookkeeping rebuilt, extent
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
// Truncation: the journal is truncated to zero at a quiesce point — no stage
// record live — but only once it has grown past twice the staging window
// (Config.journalRetain). A stage record is live from its reservation until
// it is released (drained, dropped or never appended), and txn.Journal
// refuses to truncate under any append in flight, so an acknowledged record
// is never erased (TestJournalTruncateSparesInFlightStage). A dropped
// extent's record stays replayable until the next truncation: a restart
// retries its drain, and DrainWait reports that retry. The hysteresis keeps
// recent history around: a crash after the drains completed but before the
// checkpoint's commit gate ran can still vouch for the refs (via the
// retained stage+drained pairs) instead of degenerating to ErrLost.

// journalObjectID is the well-known ID of a buffer's staging journal on its
// journal device (the txn participant journal owns ReservedIDBase+1).
const journalObjectID = osd.ReservedIDBase + 2

// jHeaderSize is the fixed on-disk size of one record header. Headers are
// written as real bytes so recovery can parse them back.
const jHeaderSize = 256

// jKind is a record kind; 0 is no record (a zeroed region).
type jKind uint8

const (
	jKindStage jKind = 1 + iota
	jKindDurable
	jKindDrained
)

// jrec is one journal record.
type jrec struct {
	seq        uint64
	kind       jKind
	epoch      uint64
	ref        storage.ObjRef
	off        int64
	length     int64
	real       bool             // the payload holds bytes, not just a size
	cap        authz.Capability // what the extent was admitted under; its drain presents it again
	payloadOff int64            // device offset of the payload (stage records, set by the walk)
}

// header encodes the record as jHeaderSize little-endian bytes, zero-padded:
//
//	[0] kind  [1] real  [2] cap.Op
//	[8] seq  [16] epoch  [24] ref.Node  [32] ref.Port  [40] ref.ID
//	[48] off  [56] length  [64] cap.Container  [72] cap.ID  [80] cap.Expires
//	[88:120] cap.Sig
func (r jrec) header() netsim.Payload {
	b := make([]byte, jHeaderSize)
	b[0] = byte(r.kind)
	if r.real {
		b[1] = 1
	}
	b[2] = byte(r.cap.Op)
	for i, v := range [...]uint64{r.seq, r.epoch, uint64(r.ref.Node), uint64(r.ref.Port), uint64(r.ref.ID),
		uint64(r.off), uint64(r.length), uint64(r.cap.Container), r.cap.ID, uint64(r.cap.Expires)} {
		binary.LittleEndian.PutUint64(b[8+8*i:], v)
	}
	copy(b[88:], r.cap.Sig[:])
	return netsim.BytesPayload(b)
}

// decodeHeader parses a header back. It accepts only what header produces
// for a known kind and a non-negative length (the walk steps by it).
func decodeHeader(b []byte) (jrec, error) {
	if len(b) != jHeaderSize {
		return jrec{}, fmt.Errorf("burst: journal header of %d bytes", len(b))
	}
	var v [10]uint64
	for i := range v {
		v[i] = binary.LittleEndian.Uint64(b[8+8*i:])
	}
	r := jrec{
		kind: jKind(b[0]), real: b[1] == 1, seq: v[0], epoch: v[1],
		ref: storage.ObjRef{Node: netsim.NodeID(v[2]), Port: portals.Index(v[3]), ID: osd.ObjectID(v[4])},
		off: int64(v[5]), length: int64(v[6]),
		cap: authz.Capability{Container: authz.ContainerID(v[7]), Op: authz.Op(b[2]), ID: v[8], Expires: sim.Time(v[9])},
	}
	copy(r.cap.Sig[:], b[88:])
	if r.kind < jKindStage || r.kind > jKindDrained || r.length < 0 || !bytes.Equal(r.header().Data, b) {
		return jrec{}, fmt.Errorf("burst: bad journal header (kind %d, length %d)", b[0], r.length)
	}
	return r, nil
}

// journalStage makes one staged extent durable before its ack: header plus
// payload appended, then a flush barrier on the journal device. Returns the
// record's sequence number.
func (s *Server) journalStage(p *sim.Proc, r *stageReq, payload netsim.Payload) (uint64, error) {
	s.jseq++
	rec := jrec{seq: s.jseq, kind: jKindStage, epoch: s.epoch, ref: r.Ref, off: r.Off,
		length: payload.Size, real: !payload.Synthetic(), cap: r.Cap}
	// Live from its reservation, so no quiesce truncates it in flight.
	s.jlive++
	if err := s.log.Append(p, rec.header(), payload); err != nil {
		s.release(p, rec.epoch)
		return 0, err
	}
	s.jdev.Sync(p)
	return rec.seq, nil
}

// journalDurable records a pass-through completion, so recovery can vouch
// for the ref in DrainWait even though nothing was staged. The data is
// already durable on the storage partition; the barrier keeps the record
// ordered ahead of the ack like any other staging promise.
func (s *Server) journalDurable(p *sim.Proc, ref storage.ObjRef) error {
	s.jseq++
	if err := s.log.Append(p, jrec{seq: s.jseq, kind: jKindDurable, epoch: s.epoch, ref: ref}.header()); err != nil {
		return err
	}
	s.jdev.Sync(p)
	return nil
}

// journalDrained marks a stage record complete and releases it. No flush
// barrier: a lost marker is re-drained idempotently on recovery.
func (s *Server) journalDrained(p *sim.Proc, seq uint64) {
	epoch := s.epoch
	s.log.Append(p, jrec{seq: seq, kind: jKindDrained, epoch: epoch}.header()) //nolint:errcheck
	s.release(p, epoch)
}

// release ends the liveness of a stage record reserved under epoch and
// truncates the journal at a quiesce point once it has outgrown the retain
// threshold. Only the reserving incarnation releases: replayJournal recounts.
func (s *Server) release(p *sim.Proc, epoch uint64) {
	if epoch != s.epoch {
		return
	}
	s.jlive--
	if s.jlive == 0 && s.log.Size() >= s.cfg.journalRetain() && s.log.Truncate(p) {
		s.truncations.Inc()
	}
}

// walkJournal is the one pass over the buffer's staging journal, on
// recovery: every header in order, then the payload of each stage record
// without a drained marker, handed to restage. Durable and drained refs are
// marked seen. It returns the highest sequence read.
func (s *Server) walkJournal(p *sim.Proc, restage func(jrec, netsim.Payload) error) (maxSeq uint64, err error) {
	st, err := s.jdev.Stat(journalObjectID)
	if err != nil {
		return 0, nil // never created: nothing was journaled
	}
	var staged []jrec
	drained := make(map[uint64]bool)
	for off := int64(0); off+jHeaderSize <= st.Size; {
		hdr, err := s.jdev.Read(p, journalObjectID, off, jHeaderSize)
		if err != nil {
			return 0, err
		}
		rec, err := decodeHeader(hdr.Bytes())
		if err != nil {
			return 0, err
		}
		off += jHeaderSize
		switch rec.kind {
		case jKindStage:
			rec.payloadOff = off
			staged = append(staged, rec)
			off += rec.length
		case jKindDrained:
			drained[rec.seq] = true
		default: // durable
			s.seen[rec.ref] = true
		}
		maxSeq = max(maxSeq, rec.seq)
	}
	for _, rec := range staged {
		if drained[rec.seq] {
			s.seen[rec.ref] = true // durable on storage: safe to vouch
			continue
		}
		read := s.jdev.Read
		if !rec.real {
			read = s.jdev.ReadSynthetic
		}
		payload, err := read(p, journalObjectID, rec.payloadOff, rec.length)
		if err == nil {
			err = restage(rec, payload)
		}
		if err != nil {
			return maxSeq, err
		}
	}
	return maxSeq, nil
}

// replayJournal is crash recovery: rebuild the staging bookkeeping from the
// journal and re-queue every staged-but-unmarked extent for the drainers
// under the current (post-crash) epoch. Returns the number of extents whose
// drain was resumed.
func (s *Server) replayJournal(p *sim.Proc) (recovered int, err error) {
	s.jlive = 0
	s.jseq, err = s.walkJournal(p, func(rec jrec, payload netsim.Payload) error {
		s.jlive++
		s.stageAvail.Add(-rec.length)
		s.track(extent{ref: rec.ref, cap: rec.cap, off: rec.off, payload: payload, stagedAt: p.Now(), epoch: s.epoch, seq: rec.seq})
		recovered++
		return nil
	})
	return recovered, err
}
