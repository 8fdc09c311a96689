package burst

import (
	"fmt"

	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
)

// AdoptJournal is the burst-tier analogue of a degraded stripe rebuild: a
// surviving buffer takes over a dead peer's durability promises. It walks
// the peer's staging journal on jdev, re-stages every undrained extent into
// this buffer's own window (journaling each one locally first, so the
// adopted promise is as crash-proof as a native one), and re-queues them
// for this buffer's drainers. Pass-through and drained records are absorbed
// as vouchable refs, so a DrainWait redirected at the adopter covers the
// peer's whole absorbed set, not just its backlog.
//
// Fencing: before returning, AdoptJournal appends a synced "adopted" marker
// to the peer's journal covering every sequence it read. Should the dead
// buffer restart later, its replay skips the adopted records — ownership
// moved here, and two buffers must never both drain (or vouch for) one
// extent. The caller is responsible for the other direction: the peer must
// be fail-stopped *before* adoption begins (a live owner appending
// concurrently is not fenced by the marker).
//
// Capacity: adoption bypasses staging admission — the window gauge may go
// negative. Recovery data has nowhere else to live, and the deficit drains
// off at the normal pace; new client writes meanwhile degrade to
// pass-through, which is the usual full-window behavior.
//
// Returns the number of extents re-staged. Adopting an empty or absent
// journal is a no-op.
//
// The adopter itself must be journaled: a memory-only buffer would convert
// the peer's durably-journaled extents into memory-only state while the
// fencing marker stops every other recovery path from replaying them — a
// crash of the adopter before draining would then lose data that was
// recoverable a moment earlier.
func (s *Server) AdoptJournal(p *sim.Proc, jdev *osd.Device) (adopted int, err error) {
	if s.jdev == nil {
		return 0, fmt.Errorf("burst: adopt: adopter must be journaled")
	}
	if jdev == nil {
		return 0, fmt.Errorf("burst: adopt: nil journal device")
	}
	if jdev == s.jdev {
		return 0, fmt.Errorf("burst: adopt: cannot adopt own journal")
	}
	if s.rpc.Down() {
		return 0, fmt.Errorf("burst: adopt: adopter is down")
	}
	if _, err := jdev.Stat(journalObjectID); err != nil {
		return 0, nil // the peer never staged anything: nothing to fence
	}
	epoch := s.epoch
	maxSeq, tail, err := s.walkJournal(p, jdev, func(rec jrec, payload netsim.Payload) error {
		req := stageReq{Cap: rec.cap, Ref: rec.ref, Off: rec.off, Len: rec.length}
		seq, err := s.journalStage(p, req, payload)
		if epoch != s.epoch {
			return fmt.Errorf("burst: crashed while adopting obj %d", uint64(rec.ref.ID))
		}
		if err != nil {
			return fmt.Errorf("burst: adopt: journal append: %w", err)
		}
		s.stageAvail.Add(-rec.length)
		s.adopted.Inc()
		s.adoptedBytes.Add(rec.length)
		s.track(extent{ref: rec.ref, cap: rec.cap, off: rec.off, payload: payload, stagedAt: p.Now(), epoch: s.epoch, seq: seq})
		adopted++
		return nil
	})
	if err != nil {
		return adopted, err
	}
	if epoch != s.epoch {
		return adopted, fmt.Errorf("burst: crashed mid-adoption")
	}

	// Fence the original owner: one synced marker covering everything read.
	// Written even when nothing new was adopted, so the peer's replay and a
	// second adopter both observe a consistent high-water mark.
	marker := jrec{seq: maxSeq, kind: jKindAdopted, ref: storage.ObjRef{Node: s.Node(), Port: Portal}}
	if err := jdev.Write(p, journalObjectID, tail, marker.header()); err != nil {
		return adopted, fmt.Errorf("burst: adopt: fencing marker: %w", err)
	}
	jdev.Sync(p)
	return adopted, nil
}

// Adopted reports extents this buffer re-staged from dead peers' journals
// (the `burst.<node>.adopted` instrument).
func (s *Server) Adopted() int64 { return s.adopted.Value() }
