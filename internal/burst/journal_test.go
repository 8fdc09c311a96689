package burst_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

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
	return bootJournaledOn(t, cfg, osd.BurstJournalParams())
}

// bootJournaledOn is bootJournaled with the journal on a device of the given
// class.
func bootJournaledOn(t *testing.T, cfg burst.Config, jparams osd.DiskParams) (*testrig.Rig, *storage.Server, *burst.Server) {
	t.Helper()
	r := testrig.New(4)
	srv := r.StorageServer(1, storage.DefaultConfig())
	jdev := osd.NewDevice(r.K, "bbj2", jparams)
	bb := burst.Start(r.Eps[2], r.AuthzClient(2), cfg, jdev)
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

// TestFailedDrainReleasesJournalRecord: a dropped extent — its drain
// refused, because it was staged under another container's write
// capability — releases its stage record's liveness. Ten good rounds then
// carry the journal past the retain threshold at a quiesce point, so it
// truncates, and a restart after that has nothing left to recover: the
// dropped record went with the truncation. A record left counted live
// would keep the journal from ever truncating.
func TestFailedDrainReleasesJournalRecord(t *testing.T) {
	r, srv, bb := bootJournaled(t, burst.DefaultConfig())
	sc := storage.NewClient(r.Caller(3))
	bc := burst.NewClient(r.Caller(3))
	const size = 40 * mb // ten rounds pass the 128 MiB retain threshold
	r.Go("client", func(p *sim.Proc) {
		cid, caps := session(t, p, r)
		_, other := session(t, p, r)
		tgt := storage.Target{Node: srv.Node(), Port: srv.RPCPort()}
		ref, err := sc.Create(p, tgt, caps[authz.OpCreate], cid)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		good, err := sc.Create(p, tgt, caps[authz.OpCreate], cid)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		staged, err := bc.StageWrite(p, bb.Tgt(), ref, other[authz.OpWrite], 0, netsim.SyntheticPayload(size))
		if err != nil || !staged {
			t.Fatalf("stage under a foreign capability: staged=%v err=%v", staged, err)
		}
		if err := bc.DrainWait(p, bb.Tgt(), []storage.ObjRef{ref}, 0); !errors.Is(err, burst.ErrDrainFailed) {
			t.Fatalf("drain wait: %v, want ErrDrainFailed", err)
		}
		for round := 0; round < 10; round++ {
			staged, err := bc.StageWrite(p, bb.Tgt(), good, caps[authz.OpWrite], 0, netsim.SyntheticPayload(size))
			if err != nil || !staged {
				t.Fatalf("stage %d: staged=%v err=%v", round, staged, err)
			}
			if err := bc.DrainWait(p, bb.Tgt(), []storage.ObjRef{good}, 0); err != nil {
				t.Fatalf("drain wait %d: %v", round, err)
			}
		}
		if n := r.Metric("burst.*.journal.truncations"); n < 1 {
			t.Fatalf("journal.truncations %d after ten drained rounds past the retain threshold, want >= 1", n)
		}
		bb.Crash()
		if n, err := bb.Restart(p); err != nil || n != 0 {
			t.Fatalf("restart: recovered=%d err=%v, want 0 extents", n, err)
		}
	})
	r.Run(t)
}

// TestJournalTruncateSparesInFlightStage: quiesce truncation must not erase
// an acknowledged record. Three drained rounds bring the journal to the
// retain threshold; then A is staged, and B 15 ms later. B's append is
// reserved while A is draining, so when A's drained marker finds no other
// record live the journal is not quiet: B's header and payload are still on
// their way to the disk. Truncating there erased B's header while its
// payload landed past the reset cursor, and the Restart that followed a
// crash on B's ack failed to parse the journal. B must be recovered and read
// back bit-exact; and a crash after the truncate has landed (both drained)
// recovers nothing and loses nothing.
func TestJournalTruncateSparesInFlightStage(t *testing.T) {
	for _, c := range []struct {
		name        string
		crashOnAck  bool // crash on B's ack; else once A and B have drained
		recoveredOK int
	}{{"crash on ack", true, 1}, {"crash after truncate", false, 0}} {
		t.Run(c.name, func(t *testing.T) {
			cfg := burst.DefaultConfig()
			cfg.StageCapacity = mb // retain threshold 2 MB
			r, srv, bb := bootJournaledOn(t, cfg, osd.DefaultDiskParams())
			sc := storage.NewClient(r.Caller(3))
			bc := burst.NewClient(r.Caller(3))
			r.Go("client", func(p *sim.Proc) {
				cid, caps := session(t, p, r)
				tgt := storage.Target{Node: srv.Node(), Port: srv.RPCPort()}
				refA, err := sc.Create(p, tgt, caps[authz.OpCreate], cid)
				if err != nil {
					t.Fatalf("create: %v", err)
				}
				refB, err := sc.Create(p, tgt, caps[authz.OpCreate], cid)
				if err != nil {
					t.Fatalf("create: %v", err)
				}
				data := pattern(2 * mb)
				stage := func(p *sim.Proc, ref storage.ObjRef, off int64) {
					staged, err := bc.StageWrite(p, bb.Tgt(), ref, caps[authz.OpWrite], off, netsim.BytesPayload(data[off:off+mb/2]))
					if err != nil || !staged {
						t.Fatalf("stage obj %d at %d: staged=%v err=%v", ref.ID, off, staged, err)
					}
				}
				for off := int64(0); off < 3*mb/2; off += mb / 2 {
					stage(p, refA, off)
					if err := bc.DrainWait(p, bb.Tgt(), []storage.ObjRef{refA}, 0); err != nil {
						t.Fatalf("drain wait: %v", err)
					}
				}
				done := sim.NewMailbox(r.K, "b-done")
				r.Go("b", func(q *sim.Proc) {
					defer done.Send(struct{}{})
					q.Sleep(15 * time.Millisecond)
					stage(q, refB, 0)
					if !c.crashOnAck {
						if err := bc.DrainWait(q, bb.Tgt(), []storage.ObjRef{refA, refB}, 0); err != nil {
							t.Fatalf("drain wait: %v", err)
						}
						// The last drained marker, and the truncate after it,
						// land after DrainWait has returned.
						for i := 0; r.Metric("burst.*.journal.truncations") < 1; i++ {
							if i == 100 {
								t.Fatalf("journal never truncated")
							}
							q.Sleep(time.Millisecond)
						}
					}
					bb.Crash()
					n, err := bb.Restart(q)
					if err != nil || n != c.recoveredOK {
						t.Fatalf("restart: recovered=%d err=%v, want %d", n, err, c.recoveredOK)
					}
					if c.crashOnAck {
						if err := bc.DrainWait(q, bb.Tgt(), []storage.ObjRef{refB}, 0); err != nil {
							t.Fatalf("drain wait after recovery: %v", err)
						}
					}
				})
				stage(p, refA, 3*mb/2)
				done.Recv(p)
				for _, ref := range []storage.ObjRef{refA, refB} {
					n := int64(2 * mb)
					if ref == refB {
						n = mb / 2
					}
					got, err := sc.Read(p, ref, caps[authz.OpRead], 0, n)
					if err != nil || !bytes.Equal(got.Data, data[:n]) {
						t.Fatalf("obj %d read back differs: %v", ref.ID, err)
					}
				}
			})
			r.Run(t)
		})
	}
}

// TestDrainBatchSyncsOnce: extents queued for one destination drain as one
// batch with one sync for the whole batch, not one per extent, and read
// back intact.
func TestDrainBatchSyncsOnce(t *testing.T) {
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
			t.Fatalf("batched drain read-back mismatch: %v", err)
		}
	})
	r.Run(t)
	if syncs := r.Metric("burst.*.drain.syncs"); syncs >= chunks {
		t.Fatalf("drain issued %d syncs for %d extents — batching did not engage", syncs, chunks)
	}
}
