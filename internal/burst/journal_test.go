package burst_test

import (
	"bytes"
	"testing"

	"lwfs/internal/authz"
	"lwfs/internal/burst"
	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/testrig"
)

// bootJournaled is boot with a write-ahead journal on a buffer-local
// NVRAM-class device.
func bootJournaled(t *testing.T, cfg burst.Config) (*testrig.Rig, *storage.Server, *burst.Server) {
	t.Helper()
	r := testrig.New(4)
	srv := r.StorageServer(1, storage.DefaultConfig())
	jdev := osd.NewDevice(r.K, "bbj2", osd.BurstJournalParams())
	bb := burst.StartJournaled(r.Eps[2], r.AuthzClient(2), burst.DefaultPort, cfg, jdev)
	return r, srv, bb
}

// TestJournaledCrashRecoversStagedData: the inverse of
// TestCrashLosesStagedDataDetectably. With a journal, a crash between ack
// and drain no longer loses the extent — Restart replays the journal,
// the drain resumes, and DrainWait eventually vouches for a bit-exact
// durable copy.
func TestJournaledCrashRecoversStagedData(t *testing.T) {
	cfg := burst.DefaultConfig()
	cfg.DrainBW = 1 * mb // slow drain leaves a window to crash inside
	r, srv, bb := bootJournaled(t, cfg)
	sc := storage.NewClient(r.Caller(3))
	bc := burst.NewClient(r.Caller(3))
	r.Go("client", func(p *sim.Proc) {
		cid, caps := session(t, p, r)
		ref, err := sc.Create(p, storage.Target{Node: srv.Node(), Port: srv.RPCPort()}, caps[authz.OpCreate], cid)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		data := pattern(2 * mb)
		staged, err := bc.StageWrite(p, bb.Tgt(), ref, caps[authz.OpWrite], 0, netsim.BytesPayload(data))
		if err != nil || !staged {
			t.Fatalf("stage: staged=%v err=%v", staged, err)
		}
		bb.Crash()
		n, err := bb.Restart(p)
		if err != nil || n != 1 {
			t.Fatalf("restart: recovered=%d err=%v, want 1 extent", n, err)
		}
		if err := bc.DrainWait(p, bb.Tgt(), []storage.ObjRef{ref}, 0); err != nil {
			t.Fatalf("drain wait after recovery: %v", err)
		}
		got, err := sc.Read(p, ref, caps[authz.OpRead], 0, int64(len(data)))
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got.Data, data) {
			t.Fatalf("recovered data mismatch")
		}
	})
	r.Run(t)
}

// TestJournaledPassthroughSurvivesCrash: a pass-through completion is
// recorded in the journal, so after a crash DrainWait can still vouch for
// the ref instead of reporting ErrLost and forcing a spurious abort.
func TestJournaledPassthroughSurvivesCrash(t *testing.T) {
	cfg := burst.DefaultConfig()
	cfg.StageCapacity = 1 * mb
	cfg.DrainBW = 1 * mb // the first stage pins the window shut
	r, srv, bb := bootJournaled(t, cfg)
	sc := storage.NewClient(r.Caller(3))
	bc := burst.NewClient(r.Caller(3))
	r.Go("client", func(p *sim.Proc) {
		cid, caps := session(t, p, r)
		tgt := storage.Target{Node: srv.Node(), Port: srv.RPCPort()}
		ref1, err := sc.Create(p, tgt, caps[authz.OpCreate], cid)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		ref2, err := sc.Create(p, tgt, caps[authz.OpCreate], cid)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if staged, err := bc.StageWrite(p, bb.Tgt(), ref1, caps[authz.OpWrite], 0, netsim.BytesPayload(pattern(mb))); err != nil || !staged {
			t.Fatalf("first stage: staged=%v err=%v", staged, err)
		}
		staged, err := bc.StageWrite(p, bb.Tgt(), ref2, caps[authz.OpWrite], 0, netsim.BytesPayload(pattern(mb)))
		if err != nil || staged {
			t.Fatalf("second stage: staged=%v err=%v, want pass-through", staged, err)
		}
		bb.Crash()
		if _, err := bb.Restart(p); err != nil {
			t.Fatalf("restart: %v", err)
		}
		// The pass-through ref must still be vouched for post-crash.
		if err := bc.DrainWait(p, bb.Tgt(), []storage.ObjRef{ref1, ref2}, 0); err != nil {
			t.Fatalf("drain wait after recovery: %v", err)
		}
	})
	r.Run(t)
}

// TestJournalTruncatesAtQuiesce: once every staged record has a drained
// marker and the journal has outgrown the retain threshold, it is
// truncated so journal space stays bounded by the staging window, not the
// job's lifetime write volume.
func TestJournalTruncatesAtQuiesce(t *testing.T) {
	cfg := burst.DefaultConfig()
	cfg.StageCapacity = mb / 2 // retain threshold 1 MB: passed by the second round's records
	r, srv, bb := bootJournaled(t, cfg)
	sc := storage.NewClient(r.Caller(3))
	bc := burst.NewClient(r.Caller(3))
	r.Go("client", func(p *sim.Proc) {
		cid, caps := session(t, p, r)
		ref, err := sc.Create(p, storage.Target{Node: srv.Node(), Port: srv.RPCPort()}, caps[authz.OpCreate], cid)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		for round := int64(0); round < 2; round++ {
			staged, err := bc.StageWrite(p, bb.Tgt(), ref, caps[authz.OpWrite], round*mb/2, netsim.BytesPayload(pattern(mb/2)))
			if err != nil || !staged {
				t.Fatalf("stage %d: staged=%v err=%v", round, staged, err)
			}
			if err := bc.DrainWait(p, bb.Tgt(), []storage.ObjRef{ref}, 0); err != nil {
				t.Fatalf("drain wait %d: %v", round, err)
			}
		}
	})
	r.Run(t)
	if r.Metric("burst.*.journal.truncations") < 1 {
		t.Fatalf("journal never truncated despite quiesce past retain threshold")
	}
}

// TestDrainCoalescing: contiguous extents bound for one object drain as a
// single storage write with one sync for the whole batch, not one per
// extent.
func TestDrainCoalescing(t *testing.T) {
	cfg := burst.DefaultConfig()
	cfg.DrainWorkers = 1
	cfg.DrainBW = 4 * mb // slow enough that later stages queue behind the first batch
	r, srv, bb := boot(t, cfg)
	sc := storage.NewClient(r.Caller(3))
	bc := burst.NewClient(r.Caller(3))
	const chunk = mb / 4
	const chunks = 8
	r.Go("client", func(p *sim.Proc) {
		cid, caps := session(t, p, r)
		ref, err := sc.Create(p, storage.Target{Node: srv.Node(), Port: srv.RPCPort()}, caps[authz.OpCreate], cid)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		data := pattern(chunk * chunks)
		for i := 0; i < chunks; i++ {
			off := int64(i * chunk)
			if _, err := bc.StageWrite(p, bb.Tgt(), ref, caps[authz.OpWrite], off, netsim.BytesPayload(data[off:off+chunk])); err != nil {
				t.Fatalf("stage %d: %v", i, err)
			}
		}
		if err := bc.DrainWait(p, bb.Tgt(), []storage.ObjRef{ref}, 0); err != nil {
			t.Fatalf("drain wait: %v", err)
		}
		got, err := sc.Read(p, ref, caps[authz.OpRead], 0, int64(len(data)))
		if err != nil || !bytes.Equal(got.Data, data) {
			t.Fatalf("coalesced drain read-back mismatch: %v", err)
		}
	})
	r.Run(t)
	if r.Metric("burst.*.drain.coalesced") == 0 {
		t.Fatalf("no extents coalesced across %d contiguous stages", chunks)
	}
	if syncs := r.Metric("burst.*.drain.syncs"); syncs >= chunks {
		t.Fatalf("drain issued %d syncs for %d extents — batching did not engage", syncs, chunks)
	}
}
