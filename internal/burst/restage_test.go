package burst_test

import (
	"bytes"
	"errors"
	"testing"

	"lwfs/internal/authz"
	"lwfs/internal/burst"
	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/testrig"
)

// bootJournaledPair is bootJournaled with a second journaled buffer on
// another node, for peer-adoption tests; jdevA is the first buffer's journal
// device, which is what a peer adopts.
func bootJournaledPair(t *testing.T, cfg burst.Config) (r *testrig.Rig, srv *storage.Server, bbA, bbB *burst.Server, jdevA *osd.Device) {
	t.Helper()
	r = testrig.New(5)
	srv = r.StorageServer(1, storage.DefaultConfig())
	jdevA = osd.NewDevice(r.K, "bbj2", osd.BurstJournalParams())
	bbA = burst.Start(r.Eps[2], r.AuthzClient(2), cfg, jdevA)
	jdevB := osd.NewDevice(r.K, "bbj3", osd.BurstJournalParams())
	bbB = burst.Start(r.Eps[3], r.AuthzClient(3), cfg, jdevB)
	return r, srv, bbA, bbB, jdevA
}

// TestAdoptJournalRestagesOntoPeer: the burst-tier analogue of a degraded
// stripe rebuild. A journaled buffer crashes with staged-but-undrained
// extents; instead of waiting for it to restart, a peer adopts its journal,
// re-stages the extents, and its own DrainWait vouches for them — the data
// reaches storage bit-exact through the peer. The adoption marker fences
// the original: a later Restart recovers nothing and reports the refs lost
// (ownership moved), and a second adopter finds nothing left to take.
func TestAdoptJournalRestagesOntoPeer(t *testing.T) {
	cfg := burst.DefaultConfig()
	cfg.DrainBW = 1 * mb // slow drain leaves the extent staged at crash time
	r, srv, bbA, bbB, jdevA := bootJournaledPair(t, cfg)
	sc := storage.NewClient(r.Caller(4))
	bc := burst.NewClient(r.Caller(4))
	r.Go("client", func(p *sim.Proc) {
		cid, caps := session(t, p, r)
		ref, err := sc.Create(p, storage.Target{Node: srv.Node(), Port: srv.RPCPort()}, caps[authz.OpCreate], cid)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		data := pattern(2 * mb)
		staged, err := bc.StageWrite(p, bbA.Tgt(), ref, caps[authz.OpWrite], 0, netsim.BytesPayload(data))
		if err != nil || !staged {
			t.Fatalf("stage: staged=%v err=%v", staged, err)
		}
		bbA.Crash()

		n, err := bbB.AdoptJournal(p, jdevA)
		if err != nil || n != 1 {
			t.Fatalf("adopt: adopted=%d err=%v, want 1 extent", n, err)
		}
		if err := bc.DrainWait(p, bbB.Tgt(), []storage.ObjRef{ref}, 0); err != nil {
			t.Fatalf("drain wait on adopter: %v", err)
		}
		got, err := sc.Read(p, ref, caps[authz.OpRead], 0, int64(len(data)))
		if err != nil || !bytes.Equal(got.Data, data) {
			t.Fatalf("adopted data mismatch: %v", err)
		}

		// The fencing marker keeps the original owner out: restart replays
		// around the adopted record and can no longer vouch for the ref.
		if rec, err := bbA.Restart(p); err != nil || rec != 0 {
			t.Fatalf("restart after adoption: recovered=%d err=%v, want 0", rec, err)
		}
		if err := bc.DrainWait(p, bbA.Tgt(), []storage.ObjRef{ref}, 0); !errors.Is(err, burst.ErrLost) {
			t.Fatalf("original owner still vouches for adopted ref: %v", err)
		}
	})
	r.Run(t)
	if bbB.Adopted() != 1 {
		t.Fatalf("adopted counter = %d, want 1", bbB.Adopted())
	}
}

// TestAdoptJournalRequiresJournaledAdopter: a memory-only buffer must not
// adopt — it would turn the peer's durably-journaled extents into
// memory-only state while the fencing marker stops every other recovery
// path from replaying them. The refusal must leave the peer's journal
// unfenced, so a journaled peer can still adopt afterwards.
func TestAdoptJournalRequiresJournaledAdopter(t *testing.T) {
	cfg := burst.DefaultConfig()
	cfg.DrainBW = 1 * mb
	r, srv, bbA, bbB, jdevA := bootJournaledPair(t, cfg)
	bbC := burst.Start(r.Eps[4], r.AuthzClient(4), cfg, nil) // memory-only
	sc := storage.NewClient(r.Caller(0))
	bc := burst.NewClient(r.Caller(0))
	r.Go("client", func(p *sim.Proc) {
		cid, caps := session(t, p, r)
		ref, err := sc.Create(p, storage.Target{Node: srv.Node(), Port: srv.RPCPort()}, caps[authz.OpCreate], cid)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if staged, err := bc.StageWrite(p, bbA.Tgt(), ref, caps[authz.OpWrite], 0, netsim.BytesPayload(pattern(mb))); err != nil || !staged {
			t.Fatalf("stage: staged=%v err=%v", staged, err)
		}
		bbA.Crash()
		if _, err := bbC.AdoptJournal(p, jdevA); err == nil {
			t.Fatal("memory-only buffer adopted a journal, want refusal")
		}
		if n, err := bbB.AdoptJournal(p, jdevA); err != nil || n != 1 {
			t.Fatalf("journaled adopt after refusal: adopted=%d err=%v, want 1", n, err)
		}
	})
	r.Run(t)
	if bbC.Adopted() != 0 {
		t.Fatalf("memory-only adopter counted %d extents, want 0", bbC.Adopted())
	}
}

// TestAdoptJournalOfIdlePeerIsNoOp: a peer that never staged has no journal
// object; adopting it takes nothing and leaves nothing behind.
func TestAdoptJournalOfIdlePeerIsNoOp(t *testing.T) {
	r, _, bbA, bbB, jdevA := bootJournaledPair(t, burst.DefaultConfig())
	r.Go("client", func(p *sim.Proc) {
		bbA.Crash()
		if n, err := bbB.AdoptJournal(p, jdevA); err != nil || n != 0 {
			t.Fatalf("adopt: adopted=%d err=%v, want 0, nil", n, err)
		}
		if jdevA.NumObjects() != 0 {
			t.Fatalf("adoption created %d objects on the idle peer's device", jdevA.NumObjects())
		}
	})
	r.Run(t)
}

// TestAdoptJournalIdempotent: a second adoption pass over an already-fenced
// journal takes nothing — the marker is a high-water mark, not a hint.
func TestAdoptJournalIdempotent(t *testing.T) {
	cfg := burst.DefaultConfig()
	cfg.DrainBW = 1 * mb
	r, srv, bbA, bbB, jdevA := bootJournaledPair(t, cfg)
	sc := storage.NewClient(r.Caller(4))
	bc := burst.NewClient(r.Caller(4))
	r.Go("client", func(p *sim.Proc) {
		cid, caps := session(t, p, r)
		ref, err := sc.Create(p, storage.Target{Node: srv.Node(), Port: srv.RPCPort()}, caps[authz.OpCreate], cid)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if staged, err := bc.StageWrite(p, bbA.Tgt(), ref, caps[authz.OpWrite], 0, netsim.BytesPayload(pattern(mb))); err != nil || !staged {
			t.Fatalf("stage: staged=%v err=%v", staged, err)
		}
		bbA.Crash()
		if n, err := bbB.AdoptJournal(p, jdevA); err != nil || n != 1 {
			t.Fatalf("first adopt: adopted=%d err=%v", n, err)
		}
		if n, err := bbB.AdoptJournal(p, jdevA); err != nil || n != 0 {
			t.Fatalf("second adopt: adopted=%d err=%v, want 0", n, err)
		}
		if err := bc.DrainWait(p, bbB.Tgt(), []storage.ObjRef{ref}, 0); err != nil {
			t.Fatalf("drain wait: %v", err)
		}
	})
	r.Run(t)
}
