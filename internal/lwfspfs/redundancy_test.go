package lwfspfs_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"lwfs/internal/authz"
	"lwfs/internal/lwfspfs"
	"lwfs/internal/naming"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/stripe"
)

// pfsRetry arms clients in crash tests so dead servers time out.
var pfsRetry = portals.RetryPolicy{
	MaxAttempts: 2,
	Timeout:     25 * time.Millisecond,
	Backoff:     time.Millisecond,
	Jitter:      100 * time.Microsecond,
}

// A redundant file system survives a storage-server crash end to end:
// reads degrade transparently, Rebuild re-homes the lost objects, and the
// repaired file reads clean — for both replica and parity schemes.
func TestRedundantFileSurvivesServerCrash(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts lwfspfs.Options
	}{
		{"replica", lwfspfs.Options{StripeUnit: 64 << 10, Scheme: stripe.Replica}},
		{"parity", lwfspfs.Options{StripeUnit: 64 << 10, Scheme: stripe.Parity}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, l := smallCluster()
			c := cl.NewClient(l, 0)
			c.SetRetry(pfsRetry, 31)
			cl.Spawn("app", func(p *sim.Proc) {
				if err := c.Login(p, "alice", "pa"); err != nil {
					t.Fatalf("login: %v", err)
				}
				fs, err := lwfspfs.Format(p, c, "/vol0", tc.opts)
				if err != nil {
					t.Fatalf("format: %v", err)
				}
				f, err := fs.Create(p, "/data.bin")
				if err != nil {
					t.Fatalf("create: %v", err)
				}
				data := make([]byte, 500_000)
				rand.New(rand.NewSource(9)).Read(data)
				if _, err := f.WriteAt(p, 0, payloadOf(data)); err != nil {
					t.Fatalf("write: %v", err)
				}
				if err := f.Close(p); err != nil {
					t.Fatalf("close: %v", err)
				}

				// Kill the server holding the file's second data object.
				// (The metadata record is mirrored off the data columns —
				// DESIGN §4.11 — so even if this server hosts a mirror,
				// Open falls back to a surviving one.)
				dead := storage.TargetOf(f.Layout().Objs[1])
				for _, srv := range l.Servers {
					if (storage.Target{Node: srv.Node(), Port: srv.RPCPort()}) == dead {
						srv.Crash()
					}
				}

				// Degraded read through a fresh open.
				g, err := fs.Open(p, "/data.bin")
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				got, err := g.ReadAt(p, 0, int64(len(data)))
				if err != nil || !bytes.Equal(got.Data, data) {
					t.Fatalf("degraded read mismatch: %v", err)
				}

				// Online rebuild, then verify the patched layout avoids the
				// dead server and reads clean.
				if err := fs.Rebuild(p, "/data.bin", dead); err != nil {
					t.Fatalf("rebuild: %v", err)
				}
				g, err = fs.Open(p, "/data.bin")
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				for i, o := range g.Layout().Objs {
					if storage.TargetOf(o) == dead {
						t.Fatalf("rebuilt layout still references dead server at %d", i)
					}
				}
				got, err = g.ReadAt(p, 0, int64(len(data)))
				if err != nil || !bytes.Equal(got.Data, data) {
					t.Fatalf("post-rebuild read mismatch: %v", err)
				}
				snap := cl.Metrics().Snapshot()
				if snap.Sum("rebuild.*.objects_done") == 0 {
					t.Error("rebuild instruments did not move")
				}
			})
			run(t, cl)
		})
	}
}

// A metadata rewrite whose encoding is shorter than the previous one (as
// Rebuild produces when a replacement ref has fewer digits than the dead
// one) must truncate the metadata object: a stale tail of the old encoding
// would garble the next Open's Decode and leave the file unopenable.
func TestFlushMetaShrinkingEncoding(t *testing.T) {
	cl, l := smallCluster()
	c := cl.NewClient(l, 0)
	cl.Spawn("app", func(p *sim.Proc) {
		if err := c.Login(p, "alice", "pa"); err != nil {
			t.Fatalf("login: %v", err)
		}
		fs, err := lwfspfs.Format(p, c, "/vol2", lwfspfs.Options{StripeUnit: 64 << 10})
		if err != nil {
			t.Fatalf("format: %v", err)
		}
		f, err := fs.Create(p, "/shrink.bin")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		short := f.Layout()
		if len(short.Objs) < 2 {
			t.Fatalf("need a multi-object layout, got %d objects", len(short.Objs))
		}
		short.Objs = short.Objs[:1] // three fewer obj lines: encoding shrinks
		f.SetLayoutForTest(short)
		if err := f.Close(p); err != nil {
			t.Fatalf("close: %v", err)
		}
		g, err := fs.Open(p, "/shrink.bin")
		if err != nil {
			t.Fatalf("reopen after shrinking metadata rewrite: %v", err)
		}
		if len(g.Layout().Objs) != 1 {
			t.Fatalf("reopened layout has %d objects, want 1", len(g.Layout().Objs))
		}
	})
	run(t, cl)
}

// The superblock round-trips the redundancy options, and a RAID-0 format
// still writes the byte-identical legacy superblock (no scheme line).
func TestSuperblockPersistsScheme(t *testing.T) {
	cl, l := smallCluster()
	c := cl.NewClient(l, 0)
	c2 := cl.NewClient(l, 1)
	cl.Spawn("app", func(p *sim.Proc) {
		if err := c.Login(p, "alice", "pa"); err != nil {
			t.Fatalf("login: %v", err)
		}
		if err := c2.Login(p, "alice", "pa"); err != nil {
			t.Fatalf("login2: %v", err)
		}
		fs, err := lwfspfs.Format(p, c, "/vol1",
			lwfspfs.Options{StripeUnit: 32 << 10, Stripes: 2, Scheme: stripe.Replica})
		if err != nil {
			t.Fatalf("format: %v", err)
		}
		fs2, err := lwfspfs.Mount(p, c2, "/vol1", fs.Container())
		if err != nil {
			t.Fatalf("mount: %v", err)
		}
		f, err := fs2.Create(p, "/x")
		if err != nil {
			t.Fatalf("create on remount: %v", err)
		}
		lay := f.Layout()
		if lay.Scheme != stripe.Replica || lay.Copies != 2 || len(lay.Objs) != 4 {
			t.Fatalf("remounted scheme lost: %+v", lay)
		}
	})
	run(t, cl)
}

// Mount refuses a superblock whose container line is not the container it
// was given: here one copied from another file system into this one's
// container, so the read itself is admitted.
func TestMountRefusesOtherContainersSuperblock(t *testing.T) {
	cl, l := smallCluster()
	c := cl.NewClient(l, 0)
	cl.Spawn("app", func(p *sim.Proc) {
		if err := c.Login(p, "alice", "pa"); err != nil {
			t.Fatalf("login: %v", err)
		}
		fsA, err := lwfspfs.Format(p, c, "/a", lwfspfs.Options{StripeUnit: 64 << 10})
		if err != nil {
			t.Fatalf("format a: %v", err)
		}
		fsB, err := lwfspfs.Format(p, c, "/b", lwfspfs.Options{StripeUnit: 64 << 10})
		if err != nil {
			t.Fatalf("format b: %v", err)
		}
		capsA, err := c.GetCaps(p, fsA.Container(), authz.AllOps...)
		if err != nil {
			t.Fatalf("caps a: %v", err)
		}
		capsB, err := c.GetCaps(p, fsB.Container(), authz.AllOps...)
		if err != nil {
			t.Fatalf("caps b: %v", err)
		}
		e, err := c.Lookup(p, "/a/.lwfspfs")
		if err != nil {
			t.Fatalf("lookup: %v", err)
		}
		sbA, err := c.Read(p, e.Refs[0], capsA, 0, 256)
		if err != nil {
			t.Fatalf("read a's superblock: %v", err)
		}
		forged, err := c.CreateObject(p, c.Server(0), capsB)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, err := c.Write(p, forged, capsB, 0, sbA); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := c.Mkdir(p, "/x"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := c.CreateName(p, "/x/.lwfspfs", forged, nil); err != nil {
			t.Fatalf("name: %v", err)
		}
		if _, err := lwfspfs.Mount(p, c, "/x", fsB.Container()); !errors.Is(err, lwfspfs.ErrBadLayout) {
			t.Fatalf("mount of a superblock naming container %d as container %d: %v, want ErrBadLayout",
				fsA.Container(), fsB.Container(), err)
		}
		if _, err := lwfspfs.Mount(p, c, "/a", fsA.Container()); err != nil {
			t.Fatalf("mount of the original: %v", err)
		}
		// A directory where the superblock belongs is no superblock.
		for _, dir := range []string{"/y", "/y/.lwfspfs"} {
			if err := c.Mkdir(p, dir); err != nil {
				t.Fatalf("mkdir %s: %v", dir, err)
			}
		}
		if _, err := lwfspfs.Mount(p, c, "/y", fsB.Container()); !errors.Is(err, naming.ErrIsDir) {
			t.Fatalf("mount over a directory named .lwfspfs: %v, want naming.ErrIsDir", err)
		}
	})
	run(t, cl)
}

// A copy a write absorbed may miss bytes even after its server restarts, so
// File.Sync counts it lost: alone it is tolerated, but once the column's other
// copy dies Sync fails with ErrUnrecoverable instead of reporting the write
// durable.
func TestSyncCountsAbsorbedCopyLost(t *testing.T) {
	cl, l := smallCluster()
	c := cl.NewClient(l, 0)
	c.SetRetry(pfsRetry, 37)
	server := func(o storage.ObjRef) *storage.Server {
		for _, srv := range l.Servers {
			if (storage.Target{Node: srv.Node(), Port: srv.RPCPort()}) == storage.TargetOf(o) {
				return srv
			}
		}
		t.Fatalf("no server hosts %v", o)
		return nil
	}
	cl.Spawn("app", func(p *sim.Proc) {
		if err := c.Login(p, "alice", "pa"); err != nil {
			t.Fatalf("login: %v", err)
		}
		fs, err := lwfspfs.Format(p, c, "/vol0",
			lwfspfs.Options{StripeUnit: 64 << 10, Scheme: stripe.Replica})
		if err != nil {
			t.Fatalf("format: %v", err)
		}
		f, err := fs.Create(p, "/data.bin")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, err := f.WriteAt(p, 0, synthetic(64<<10)); err != nil {
			t.Fatalf("write: %v", err)
		}
		a, b := server(f.Layout().ReplicaObj(0, 0)), server(f.Layout().ReplicaObj(1, 0))
		a.Crash()
		if _, err := f.WriteAt(p, 0, synthetic(64<<10)); err != nil {
			t.Fatalf("overwrite with copy 0 down: %v", err)
		}
		if _, err := a.Restart(p); err != nil {
			t.Fatalf("restart: %v", err)
		}
		if err := f.Sync(p); err != nil {
			t.Fatalf("sync with the absorbed copy back: %v", err)
		}
		b.Crash()
		if err := f.Sync(p); !errors.Is(err, stripe.ErrUnrecoverable) {
			t.Fatalf("sync with the only current copy dead = %v, want ErrUnrecoverable", err)
		}
	})
	run(t, cl)
}
