package burst_test

import (
	"bytes"
	"errors"
	"io/fs"
	"math"
	"testing"
	"time"

	"lwfs/internal/authz"
	"lwfs/internal/burst"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/testrig"
)

const mb = 1 << 20

// rig layout: node 0 admin, node 1 storage, node 2 burst buffer, node 3 client.
func boot(t *testing.T, cfg burst.Config) (*testrig.Rig, *storage.Server, *burst.Server) {
	t.Helper()
	r := testrig.New(4)
	srv := r.StorageServer(1, storage.DefaultConfig())
	bb := burst.Start(r.Eps[2], r.AuthzClient(2), cfg, nil)
	return r, srv, bb
}

// session acquires a container and caps for create/write/read on node 3.
func session(t *testing.T, p *sim.Proc, r *testrig.Rig) (authz.ContainerID, map[authz.Op]authz.Capability) {
	t.Helper()
	az := r.AuthzClient(3)
	cred, err := r.AuthnClient(3).Login(p, "alice", testrig.Secret("alice"))
	if err != nil {
		t.Fatalf("login: %v", err)
	}
	cid, err := az.CreateContainer(p, cred)
	if err != nil {
		t.Fatalf("container: %v", err)
	}
	caps, err := az.GetCaps(p, cred, cid, authz.OpCreate, authz.OpWrite, authz.OpRead)
	if err != nil {
		t.Fatalf("getcaps: %v", err)
	}
	m := make(map[authz.Op]authz.Capability)
	for _, c := range caps {
		m[c.Op] = c
	}
	return cid, m
}

func pattern(n int64) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + 3)
	}
	return b
}

// TestStageDrainRoundTrip: a staged write is acknowledged before it is
// durable, drains in the background, and reads back bit-exactly from the
// backing store after DrainWait.
func TestStageDrainRoundTrip(t *testing.T) {
	r, srv, bb := boot(t, burst.DefaultConfig())
	sc := storage.NewClient(r.Caller(3))
	bc := burst.NewClient(r.Caller(3))
	r.Go("client", func(p *sim.Proc) {
		cid, caps := session(t, p, r)
		ref, err := sc.Create(p, storage.Target{Node: srv.Node(), Port: srv.RPCPort()}, caps[authz.OpCreate], cid)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		data := pattern(2 * mb)
		ackStart := p.Now()
		staged, err := bc.StageWrite(p, bb.Tgt(), ref, caps[authz.OpWrite], 0, netsim.BytesPayload(data))
		ack := p.Now().Sub(ackStart)
		if err != nil || !staged {
			t.Fatalf("stage: staged=%v err=%v", staged, err)
		}
		if st, err := srv.Device().Stat(ref.ID); err == nil && st.Size == int64(len(data)) {
			t.Fatalf("write already fully durable at ack time — not write-behind")
		}
		drainStart := p.Now()
		if err := bc.DrainWait(p, bb.Tgt(), []storage.ObjRef{ref}, 0); err != nil {
			t.Fatalf("drain wait: %v", err)
		}
		if wait := p.Now().Sub(drainStart); wait <= ack {
			t.Errorf("drain wait %v not above ack %v — drain suspiciously fast", wait, ack)
		}
		got, err := sc.Read(p, ref, caps[authz.OpRead], 0, int64(len(data)))
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got.Data, data) {
			t.Fatalf("drained data mismatch")
		}
	})
	r.Run(t)
	if staged, pass := r.Metric("burst.*.staged"), r.Metric("burst.*.passthroughs"); staged != 1 || pass != 0 {
		t.Fatalf("staged=%d passthroughs=%d, want 1/0", staged, pass)
	}
	if lat := r.Net.Metrics().Snapshot().MergedHist("burst.*.drain.latency_ms"); lat.N() != 1 || lat.Mean() <= 0 {
		t.Fatalf("drain latency sample %v", lat)
	}
	if avail := r.Metric("burst.*.stage_avail"); avail != burst.DefaultConfig().StageCapacity {
		t.Fatalf("staging window not fully released: %d", avail)
	}
}

// TestBackpressurePassthrough: with the staging window full (drain
// throttled to a crawl), a second write degrades to synchronous
// pass-through — durable at ack time, no failure.
func TestBackpressurePassthrough(t *testing.T) {
	cfg := burst.DefaultConfig()
	cfg.StageCapacity = 1 * mb
	cfg.DrainBW = 1 * mb // ~1 s to drain 1 MB: the window stays full
	r, srv, bb := boot(t, cfg)
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
		d1, d2 := pattern(mb), pattern(mb)
		staged, err := bc.StageWrite(p, bb.Tgt(), ref1, caps[authz.OpWrite], 0, netsim.BytesPayload(d1))
		if err != nil || !staged {
			t.Fatalf("first stage: staged=%v err=%v", staged, err)
		}
		staged, err = bc.StageWrite(p, bb.Tgt(), ref2, caps[authz.OpWrite], 0, netsim.BytesPayload(d2))
		if err != nil {
			t.Fatalf("second stage: %v", err)
		}
		if staged {
			t.Fatalf("second write staged despite a full window — backpressure did not engage")
		}
		// The pass-through is already durable; no DrainWait needed for ref2.
		got, err := sc.Read(p, ref2, caps[authz.OpRead], 0, int64(len(d2)))
		if err != nil || !bytes.Equal(got.Data, d2) {
			t.Fatalf("pass-through read: %v", err)
		}
		// The staged extent still drains eventually.
		if err := bc.DrainWait(p, bb.Tgt(), []storage.ObjRef{ref1}, 0); err != nil {
			t.Fatalf("drain wait: %v", err)
		}
		got, err = sc.Read(p, ref1, caps[authz.OpRead], 0, int64(len(d1)))
		if err != nil || !bytes.Equal(got.Data, d1) {
			t.Fatalf("staged read: %v", err)
		}
	})
	r.Run(t)
	if staged, pass := r.Metric("burst.*.staged"), r.Metric("burst.*.passthroughs"); staged != 1 || pass != 1 {
		t.Fatalf("staged=%d passthroughs=%d, want 1/1", staged, pass)
	}
}

// TestCrashLosesStagedDataDetectably: a buffer crash between ack and drain
// loses the staged extent; DrainWait against the crashed buffer times out,
// and after a restart reports ErrLost — it never claims durability.
func TestCrashLosesStagedDataDetectably(t *testing.T) {
	cfg := burst.DefaultConfig()
	cfg.DrainBW = 1 * mb // slow drain leaves a window to crash inside
	r, srv, bb := boot(t, cfg)
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
		if err := bc.DrainWait(p, bb.Tgt(), []storage.ObjRef{ref}, 20*time.Millisecond); !errors.Is(err, portals.ErrRPCTimeout) {
			t.Fatalf("wait against crashed buffer: %v, want timeout", err)
		}
		if n, err := bb.Restart(p); n != 0 || err != nil {
			t.Fatalf("memory-only restart recovered %d extents, err=%v", n, err)
		}
		if err := bc.DrainWait(p, bb.Tgt(), []storage.ObjRef{ref}, 20*time.Millisecond); !errors.Is(err, burst.ErrLost) {
			t.Fatalf("wait after restart: %v, want ErrLost", err)
		}
		// The data must not have become durable behind our back.
		if st, err := srv.Device().Stat(ref.ID); err == nil && st.Size >= int64(len(data)) {
			t.Fatalf("lost extent is fully durable (%d bytes) — crash semantics broken", st.Size)
		}
	})
	r.Run(t)
}

// TestFailedDrainReleasesWindow: an extent whose drain the storage server
// refuses (staged under another container's write capability) fails
// detectably and gives its staging room back, memory-only and journaled
// alike, so a later write of the same size still stages instead of
// degrading to pass-through.
func TestFailedDrainReleasesWindow(t *testing.T) {
	for _, mode := range []struct {
		name string
		boot func(*testing.T, burst.Config) (*testrig.Rig, *storage.Server, *burst.Server)
	}{{"memory", boot}, {"journaled", bootJournaled}} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := burst.DefaultConfig()
			r, srv, bb := mode.boot(t, cfg)
			sc := storage.NewClient(r.Caller(3))
			bc := burst.NewClient(r.Caller(3))
			const size = 40 * mb // more than half the window
			r.Go("client", func(p *sim.Proc) {
				cid, caps := session(t, p, r)
				_, other := session(t, p, r)
				tgt := storage.Target{Node: srv.Node(), Port: srv.RPCPort()}
				ref, err := sc.Create(p, tgt, caps[authz.OpCreate], cid)
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
				if avail := r.Metric("burst.*.stage_avail"); avail != cfg.StageCapacity {
					t.Fatalf("stage_avail %d after the failed drain, want %d", avail, cfg.StageCapacity)
				}
				staged, err = bc.StageWrite(p, bb.Tgt(), ref, caps[authz.OpWrite], 0, netsim.SyntheticPayload(size))
				if err != nil || !staged {
					t.Fatalf("second stage: staged=%v err=%v, want staged", staged, err)
				}
			})
			r.Run(t)
		})
	}
}

// TestStageRefusesRevokedCapability is the paper's §3.1 revocation property
// on the staging tier: a buffer that has verified and cached a capability
// must stop honouring it the moment the owner revokes it — the authorization
// service calls the buffer's cache back — so the next stage with that
// capability is refused up front and none of its bytes ever drain.
func TestStageRefusesRevokedCapability(t *testing.T) {
	r, srv, bb := boot(t, burst.DefaultConfig())
	sc := storage.NewClient(r.Caller(3))
	bc := burst.NewClient(r.Caller(3))
	r.Go("client", func(p *sim.Proc) {
		az := r.AuthzClient(3)
		cred, err := r.AuthnClient(3).Login(p, "alice", testrig.Secret("alice"))
		if err != nil {
			t.Fatalf("login: %v", err)
		}
		cid, err := az.CreateContainer(p, cred)
		if err != nil {
			t.Fatalf("container: %v", err)
		}
		got, err := az.GetCaps(p, cred, cid, authz.OpCreate, authz.OpWrite)
		if err != nil {
			t.Fatalf("getcaps: %v", err)
		}
		create, write := got[0], got[1]
		ref, err := sc.Create(p, storage.Target{Node: srv.Node(), Port: srv.RPCPort()}, create, cid)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		// First stage: the buffer verifies the capability and caches it.
		before := pattern(64 << 10)
		if _, err := bc.StageWrite(p, bb.Tgt(), ref, write, 0, netsim.BytesPayload(before)); err != nil {
			t.Fatalf("stage before revoke: %v", err)
		}
		if err := bc.DrainWait(p, bb.Tgt(), []storage.ObjRef{ref}, 0); err != nil {
			t.Fatalf("drain wait: %v", err)
		}

		if err := az.Revoke(p, cred, cid, authz.OpWrite); err != nil {
			t.Fatalf("revoke: %v", err)
		}
		after := bytes.Repeat([]byte{0xEE}, len(before))
		if _, err := bc.StageWrite(p, bb.Tgt(), ref, write, 0, netsim.BytesPayload(after)); !errors.Is(err, authz.ErrCapRejected) {
			t.Fatalf("stage with revoked capability: %v, want ErrCapRejected", err)
		}
		// Nothing of the refused write may reach storage, now or later.
		p.Sleep(50 * time.Millisecond)
		if obj, err := srv.Device().Lookup(ref.ID); err != nil || !bytes.Equal(obj.Data.Read(0, int64(len(before))).Data, before) {
			t.Fatalf("object changed after a refused stage (err %v)", err)
		}
	})
	r.Run(t)
	if staged, drained := r.Metric("burst.*.staged"), r.Metric("burst.*.drained_bytes"); staged != 1 || drained != 64<<10 {
		t.Errorf("staged=%d drained_bytes=%d, want 1 / %d: the refused write left a trace", staged, drained, 64<<10)
	}
}

// TestStageRejectsWrongCapability: the staging path enforces authorization
// like any other LWFS service — a read capability cannot stage writes.
func TestStageRejectsWrongCapability(t *testing.T) {
	r, srv, bb := boot(t, burst.DefaultConfig())
	sc := storage.NewClient(r.Caller(3))
	bc := burst.NewClient(r.Caller(3))
	r.Go("client", func(p *sim.Proc) {
		cid, caps := session(t, p, r)
		ref, err := sc.Create(p, storage.Target{Node: srv.Node(), Port: srv.RPCPort()}, caps[authz.OpCreate], cid)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, err := bc.StageWrite(p, bb.Tgt(), ref, caps[authz.OpRead], 0, netsim.BytesPayload(pattern(1024))); !errors.Is(err, authz.ErrWrongOp) {
			t.Fatalf("stage with read cap: %v, want ErrWrongOp", err)
		}
		if _, err := bc.StageWrite(p, bb.Tgt(), ref, authz.Capability{}, 0, netsim.BytesPayload(pattern(1024))); !errors.Is(err, authz.ErrNoCap) {
			t.Fatalf("stage with no cap: %v, want ErrNoCap", err)
		}
	})
	r.Run(t)
}

// TestStageRefusesBadRanges: a stage naming a negative offset or length, or
// a range ending past math.MaxInt64, is refused with fs.ErrInvalid before
// its capability is looked at — never acknowledged as staged and left for a
// drain to trip over. The buffer keeps staging and draining afterwards.
func TestStageRefusesBadRanges(t *testing.T) {
	r, srv, bb := boot(t, burst.DefaultConfig())
	sc := storage.NewClient(r.Caller(3))
	bc := burst.NewClient(r.Caller(3))
	r.Go("client", func(p *sim.Proc) {
		cid, caps := session(t, p, r)
		ref, err := sc.Create(p, storage.Target{Node: srv.Node(), Port: srv.RPCPort()}, caps[authz.OpCreate], cid)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		for _, bad := range []struct{ off, n int64 }{{-4096, 4096}, {0, -100}, {math.MaxInt64 - 100, 4096}} {
			for _, c := range []authz.Capability{{}, caps[authz.OpWrite]} {
				staged, err := bc.StageWrite(p, bb.Tgt(), ref, c, bad.off, netsim.SyntheticPayload(bad.n))
				if staged || !errors.Is(err, fs.ErrInvalid) {
					t.Errorf("stage of %d bytes at %d (cap %v): staged=%v err=%v, want fs.ErrInvalid", bad.n, bad.off, c.Op, staged, err)
				}
			}
		}
		if staged, err := bc.StageWrite(p, bb.Tgt(), ref, caps[authz.OpWrite], 0, netsim.BytesPayload(pattern(1024))); !staged || err != nil {
			t.Fatalf("stage after the refusals: staged=%v err=%v", staged, err)
		}
		if err := bc.DrainWait(p, bb.Tgt(), []storage.ObjRef{ref}, 0); err != nil {
			t.Fatalf("drain wait: %v", err)
		}
		if got, err := sc.Read(p, ref, caps[authz.OpRead], 0, 1024); err != nil || !bytes.Equal(got.Data, pattern(1024)) {
			t.Fatalf("read back: %v", err)
		}
	})
	r.Run(t)
}
