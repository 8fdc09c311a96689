package lwfspfs_test

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"lwfs/internal/authz"
	"lwfs/internal/cluster"
	"lwfs/internal/lwfspfs"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/stripe"
	"lwfs/internal/testrig"
)

// metaCluster is smallCluster with a fifth server, so that after one crash
// and a rebuild there is still room for every column's copies and both
// metadata mirrors to sit on distinct servers.
func metaCluster() (*cluster.Cluster, *cluster.LWFS) {
	spec := cluster.DevCluster()
	spec.ComputeNodes = 4
	spec.ServersPerNode = 1
	spec = spec.WithServers(5)
	cl := cluster.New(spec)
	cl.RegisterUser("alice", "pa")
	return cl, cl.DeployLWFS()
}

// openDegraded opens path and reports whether the open was degraded: whether
// pfs.meta.degraded_opens moved across it.
func openDegraded(p *sim.Proc, cl *cluster.Cluster, fs *lwfspfs.FS, path string) (*lwfspfs.File, bool, error) {
	before := cl.Metrics().Snapshot().Sum("pfs.meta.degraded_opens")
	f, err := fs.Open(p, path)
	return f, cl.Metrics().Snapshot().Sum("pfs.meta.degraded_opens") != before, err
}

// serverAt returns the storage server serving the given target.
func serverAt(l *cluster.LWFS, t storage.Target) *storage.Server {
	for _, srv := range l.Servers {
		if (storage.Target{Node: srv.Node(), Port: srv.RPCPort()}) == t {
			return srv
		}
	}
	return nil
}

// crashTarget kills the storage server serving the given target.
func crashTarget(l *cluster.LWFS, dead storage.Target) { serverAt(l, dead).Crash() }

// TestMetaMirrorCrashMidWorkload is the acceptance scenario for replicated
// metadata: the server hosting a redundant file's primary metadata mirror
// crashes mid-workload (at a seed-shifted instant, never restarted). The
// mount must stay openable and bit-exact via mirror fallback, FS.Rebuild
// must re-home the lost mirror, and a second, different server crash must
// also be survivable. Honors LWFS_CHAOS_SEED for the CI seed matrix.
func TestMetaMirrorCrashMidWorkload(t *testing.T) {
	seed := testrig.SeedFromEnv(7)
	cl, l := metaCluster()
	c := cl.NewClient(l, 0)
	c.SetRetry(pfsRetry, 31+seed)

	const fileSize = 512 << 10
	data := make([]byte, fileSize)
	rand.New(rand.NewSource(seed)).Read(data)

	// The chaos process learns the victim from the workload (placement is
	// path-derived) and fires at a seed-shifted instant mid-write-loop.
	victim := sim.NewMailbox(cl.K, "meta-chaos/victim")
	crashed := sim.NewMailbox(cl.K, "meta-chaos/crashed")
	cl.Spawn("chaos", func(p *sim.Proc) {
		dead := victim.Recv(p).(storage.Target)
		p.Sleep(time.Duration(2+seed%7) * time.Millisecond)
		crashTarget(l, dead)
		crashed.Send(dead)
	})

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
		refs := f.MetaRefs()
		if len(refs) < 2 {
			t.Fatalf("redundant file created with %d metadata mirrors", len(refs))
		}
		dead := storage.TargetOf(refs[0])
		victim.Send(dead)

		// Size-growing writes: every chunk extends the file, so each one
		// flushes the layout record to all mirrors — when the crash lands,
		// the flush absorbs the dead mirror instead of failing the write.
		const chunk = 64 << 10
		for off := 0; off < fileSize; off += chunk {
			if _, err := f.WriteAt(p, int64(off), payloadOf(data[off:off+chunk])); err != nil {
				t.Fatalf("write at %d: %v", off, err)
			}
		}
		if err := f.Close(p); err != nil {
			t.Fatalf("close: %v", err)
		}
		deadT := crashed.Recv(p).(storage.Target)

		// The file must stay openable and bit-exact with the metadata
		// primary's server gone.
		g, err := fs.Open(p, "/data.bin")
		if err != nil {
			t.Fatalf("open after crash: %v", err)
		}
		got, err := g.ReadAt(p, 0, fileSize)
		if err != nil || !bytes.Equal(got.Data, data) {
			t.Fatalf("post-crash read mismatch: %v", err)
		}

		// Rebuild re-homes the lost mirror (and any data objects) so the
		// mirror count is back at MetaCopies with nothing on the dead server.
		if err := fs.Rebuild(p, "/data.bin", deadT); err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		g2, degraded, err := openDegraded(p, cl, fs, "/data.bin")
		if err != nil {
			t.Fatalf("open after rebuild: %v", err)
		}
		if degraded {
			t.Fatalf("open still degraded after rebuild")
		}
		refs2 := g2.MetaRefs()
		if len(refs2) < 2 {
			t.Fatalf("rebuild left %d metadata mirrors, want >= 2", len(refs2))
		}
		for _, r := range refs2 {
			if storage.TargetOf(r) == deadT {
				t.Fatalf("rebuilt mirror set still references dead server: %v", refs2)
			}
		}

		// Second, different server crash — this time the repaired primary's
		// host. The fallback must serve the open (a degraded open) and the
		// data must still read bit-exact through the redundant layout.
		second := storage.TargetOf(refs2[0])
		if second == deadT {
			t.Fatalf("rebuild reused the dead server")
		}
		crashTarget(l, second)
		g3, degraded, err := openDegraded(p, cl, fs, "/data.bin")
		if err != nil {
			t.Fatalf("open after second crash: %v", err)
		}
		if !degraded {
			t.Fatalf("second-crash open did not report degraded")
		}
		got, err = g3.ReadAt(p, 0, fileSize)
		if err != nil || !bytes.Equal(got.Data, data) {
			t.Fatalf("second-crash read mismatch: %v", err)
		}
	})
	run(t, cl)

	snap := cl.Metrics().Snapshot()
	if n := snap.Sum("pfs.meta.degraded_opens"); n < 1 {
		t.Errorf("pfs.meta.degraded_opens = %v, want >= 1", n)
	}
	if n := snap.Sum("rebuild.meta_rehomed"); n < 1 {
		t.Errorf("rebuild.meta_rehomed = %v, want >= 1", n)
	}
}

// TestMetaCrashRaid0FailsDetectably is the control arm: a file with a
// single layout record — RAID-0's default (MetaCopies defaults to 1 there:
// mirroring the record of a file whose data cannot survive the crash buys
// nothing), or a replica file formatted with MetaCopies: 1, whose surviving
// data copies cannot stand in for the record — makes Open fail with the
// dead record server's timeout, not silently return stale state.
func TestMetaCrashRaid0FailsDetectably(t *testing.T) {
	seed := testrig.SeedFromEnv(7)
	for _, tc := range []struct {
		name string
		opts lwfspfs.Options
	}{
		{"raid0", lwfspfs.Options{StripeUnit: 64 << 10}},
		{"replica-one-record", lwfspfs.Options{StripeUnit: 64 << 10, Scheme: stripe.Replica, MetaCopies: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, l := metaCluster()
			c := cl.NewClient(l, 0)
			c.SetRetry(pfsRetry, 47+seed)
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
				if _, err := f.WriteAt(p, 0, synthetic(256<<10)); err != nil {
					t.Fatalf("write: %v", err)
				}
				if err := f.Close(p); err != nil {
					t.Fatalf("close: %v", err)
				}
				refs := f.MetaRefs()
				if len(refs) != 1 {
					t.Fatalf("%s file has %d metadata mirrors, want 1", tc.name, len(refs))
				}
				crashTarget(l, storage.TargetOf(refs[0]))
				if _, err := fs.Open(p, "/data.bin"); !errors.Is(err, portals.ErrRPCTimeout) {
					t.Fatalf("%s open after metadata-server crash: %v, want timeout", tc.name, err)
				}
			})
			run(t, cl)
		})
	}
}

// Metadata mirrors must sit skewed from the data columns: distinct servers
// for each mirror, and never column 0's server (the historical single
// metadata object's home) while the cluster has any other choice.
func TestMetaMirrorPlacementSkew(t *testing.T) {
	cl, l := metaCluster()
	c := cl.NewClient(l, 0)
	cl.Spawn("app", func(p *sim.Proc) {
		if err := c.Login(p, "alice", "pa"); err != nil {
			t.Fatalf("login: %v", err)
		}
		fs, err := lwfspfs.Format(p, c, "/vol0",
			lwfspfs.Options{StripeUnit: 64 << 10, Scheme: stripe.Replica})
		if err != nil {
			t.Fatalf("format: %v", err)
		}
		for _, path := range []string{"/a.bin", "/b.bin", "/c.bin"} {
			f, err := fs.Create(p, path)
			if err != nil {
				t.Fatalf("create %s: %v", path, err)
			}
			col0 := storage.TargetOf(f.Layout().Objs[0])
			refs := f.MetaRefs()
			seen := map[storage.Target]bool{}
			for _, r := range refs {
				tgt := storage.TargetOf(r)
				if tgt == col0 {
					t.Errorf("%s: mirror shares column 0's server %v", path, tgt)
				}
				if seen[tgt] {
					t.Errorf("%s: two mirrors on %v", path, tgt)
				}
				seen[tgt] = true
			}
		}
	})
	run(t, cl)
}

// A flush that loses a non-primary mirror absorbs the fault: the write
// succeeds, the mirror is counted stale, and — crucially — it is demoted
// from the naming entry, so no later Open can be served its old record.
func TestMetaFlushAbsorbsDeadMirrorAndDemotes(t *testing.T) {
	cl, l := metaCluster()
	c := cl.NewClient(l, 0)
	c.SetRetry(pfsRetry, 61)
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
		if _, err := f.WriteAt(p, 0, synthetic(128<<10)); err != nil {
			t.Fatalf("write: %v", err)
		}
		refs := f.MetaRefs()
		deadRef := refs[1]
		crashTarget(l, storage.TargetOf(deadRef))
		// Growing write → flushMeta: the dead mirror must be absorbed, not
		// fail the write.
		if _, err := f.WriteAt(p, 128<<10, synthetic(64<<10)); err != nil {
			t.Fatalf("write with dead mirror: %v", err)
		}
		if err := f.Close(p); err != nil {
			t.Fatalf("close: %v", err)
		}
		// Demotion is durable in the namespace.
		e, err := c.Lookup(p, "/vol0/data.bin")
		if err != nil {
			t.Fatalf("lookup: %v", err)
		}
		for _, r := range e.Refs {
			if r == deadRef {
				t.Fatalf("stale mirror still listed in naming entry: %v", e.Refs)
			}
		}
		// And the file reopens clean off the surviving mirror.
		g, degraded, err := openDegraded(p, cl, fs, "/data.bin")
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if degraded {
			t.Errorf("open degraded despite demotion")
		}
		if g.Size() != 192<<10 {
			t.Errorf("size = %d, want %d", g.Size(), 192<<10)
		}
	})
	run(t, cl)
	if n := cl.Metrics().Snapshot().Sum("pfs.meta.mirrors_stale"); n < 1 {
		t.Errorf("pfs.meta.mirrors_stale = %v, want >= 1", n)
	}
}

// A handle demotes a lost mirror from the naming entry once, not on every
// flush: after the server holding MetaRefs()[0] crashes, eight size-growing
// writes cost one naming RPC — the demotion — and the handle keeps only the
// live mirror.
func TestMetaMirrorLossDemotesOnce(t *testing.T) {
	cl, l := metaCluster()
	c := cl.NewClient(l, 0)
	c.SetRetry(pfsRetry, 83)
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
		refs := f.MetaRefs()
		dead := storage.TargetOf(refs[0])
		crashTarget(l, dead)
		served := cl.Metrics().Counter("rpc.naming.served")
		before := served.Value()
		const chunk = 4 << 10 // every write grows the file inside column 0
		for i := range 8 {
			if _, err := f.WriteAt(p, int64(i*chunk), synthetic(chunk)); err != nil {
				t.Fatalf("write %d with a dead mirror: %v", i, err)
			}
		}
		if got := served.Value() - before; got != 1 {
			t.Errorf("8 size-growing writes after a mirror loss cost %d naming RPCs, want 1", got)
		}
		if got := f.MetaRefs(); len(got) != len(refs)-1 || slices.Contains(got, refs[0]) {
			t.Errorf("handle mirrors after the loss = %v, want %v without %v", got, refs, refs[0])
		}
		if err := f.Close(p); err != nil {
			t.Fatalf("close: %v", err)
		}
	})
	run(t, cl)
}

// A handle that dropped a mirror demotes again after another handle's Rebuild
// re-homed one. Otherwise its flushes skip the re-homed mirror, which the
// naming entry lists with the record of rebuild time, and a client whose walk
// starts there opens the file short.
func TestShortHandleDemotesRehomedMirror(t *testing.T) {
	cl, l := metaCluster()
	c := cl.NewClient(l, 0)
	c.SetRetry(pfsRetry, 67)
	// The readers mount before the crash: the superblock may sit on the
	// victim.
	cids, mounted, grown := sim.NewMailbox(cl.K, "cid"), sim.NewMailbox(cl.K, "mounted"), sim.NewMailbox(cl.K, "grown")
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
		if _, err := f.WriteAt(p, 0, synthetic(128<<10)); err != nil {
			t.Fatalf("write: %v", err)
		}
		cids.Send(fs.Container())
		cids.Send(fs.Container())
		mounted.Recv(p)
		mounted.Recv(p)
		dead := storage.TargetOf(f.MetaRefs()[1])
		crashTarget(l, dead)
		if _, err := f.WriteAt(p, 128<<10, synthetic(64<<10)); err != nil {
			t.Fatalf("write with a dead mirror: %v", err)
		}
		if err := fs.Rebuild(p, "/data.bin", dead); err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		if e, err := c.Lookup(p, "/vol0/data.bin"); err != nil || len(e.Refs) != 2 {
			t.Fatalf("naming entry after rebuild = %v (err %v), want two mirrors", e.Refs, err)
		}
		if _, err := f.WriteAt(p, 192<<10, synthetic(64<<10)); err != nil {
			t.Fatalf("write after rebuild: %v", err)
		}
		grown.Send(true)
		grown.Send(true)
	})
	for i := 1; i <= 2; i++ { // odd and even node ids: both walk starts
		rc := cl.NewClient(l, i)
		rc.SetRetry(pfsRetry, int64(67+i))
		cl.Spawn("reader", func(p *sim.Proc) {
			cid := cids.Recv(p).(authz.ContainerID)
			if err := rc.Login(p, "alice", "pa"); err != nil {
				t.Fatalf("reader %d login: %v", i, err)
			}
			rfs, err := lwfspfs.Mount(p, rc, "/vol0", cid)
			if err != nil {
				t.Fatalf("reader %d mount: %v", i, err)
			}
			mounted.Send(true)
			grown.Recv(p)
			g, err := rfs.Open(p, "/data.bin")
			if err != nil {
				t.Fatalf("reader %d open: %v", i, err)
			}
			if g.Size() != 256<<10 {
				t.Errorf("reader %d opened size %d, want %d", i, g.Size(), 256<<10)
			}
		})
	}
	run(t, cl)
}

// A handle that kept its full mirror set follows another handle's Rebuild:
// after the mirror's server restarts, the handle's next flush writes the
// re-homed mirror the naming entry now lists, not the restarted one it had,
// or a client whose walk starts at the re-homed mirror opens the file short.
func TestFullHandleFollowsRehomedMirror(t *testing.T) {
	cl, l := metaCluster()
	c := cl.NewClient(l, 0)
	c.SetRetry(pfsRetry, 73)
	// The readers mount before the crash: the superblock may sit on the
	// victim.
	cids, mounted, grown := sim.NewMailbox(cl.K, "cid"), sim.NewMailbox(cl.K, "mounted"), sim.NewMailbox(cl.K, "grown")
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
		if _, err := f.WriteAt(p, 0, synthetic(128<<10)); err != nil {
			t.Fatalf("write: %v", err)
		}
		cids.Send(fs.Container())
		cids.Send(fs.Container())
		mounted.Recv(p)
		mounted.Recv(p)
		dead := storage.TargetOf(f.MetaRefs()[1])
		crashTarget(l, dead)
		if err := fs.Rebuild(p, "/data.bin", dead); err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		if _, err := serverAt(l, dead).Restart(p); err != nil {
			t.Fatalf("restart: %v", err)
		}
		if _, err := f.WriteAt(p, 128<<10, synthetic(128<<10)); err != nil {
			t.Fatalf("write after rebuild: %v", err)
		}
		for _, ref := range f.MetaRefs() {
			if storage.TargetOf(ref) == dead {
				t.Errorf("the handle still writes the mirror on the restarted server")
			}
		}
		grown.Send(true)
		grown.Send(true)
	})
	for i := 1; i <= 2; i++ { // odd and even node ids: both walk starts
		rc := cl.NewClient(l, i)
		rc.SetRetry(pfsRetry, int64(73+i))
		cl.Spawn("reader", func(p *sim.Proc) {
			cid := cids.Recv(p).(authz.ContainerID)
			if err := rc.Login(p, "alice", "pa"); err != nil {
				t.Fatalf("reader %d login: %v", i, err)
			}
			rfs, err := lwfspfs.Mount(p, rc, "/vol0", cid)
			if err != nil {
				t.Fatalf("reader %d mount: %v", i, err)
			}
			mounted.Send(true)
			grown.Recv(p)
			g, err := rfs.Open(p, "/data.bin")
			if err != nil {
				t.Fatalf("reader %d open: %v", i, err)
			}
			if g.Size() != 256<<10 {
				t.Errorf("reader %d opened size %d, want %d", i, g.Size(), 256<<10)
			}
		})
	}
	run(t, cl)
}

// A spare that dies between its CreateObjectTxn and the record write is
// skipped like one that never answered the create: the re-home moves on to
// the next spare and still commits. The dead spare is by then an enlisted
// participant — left in the transaction it would veto the commit — so it
// has to be delisted, and its provisional object must resolve by presumed
// abort when the server comes back. The chaos process fires on the spare's
// served counter: the reply to the create is on the wire, the write is not
// yet there.
func TestMetaRehomeSkipsSpareThatDiesAfterCreate(t *testing.T) {
	cl, l := metaCluster()
	c := cl.NewClient(l, 0)
	c.SetRetry(pfsRetry, 73)

	armed := sim.NewMailbox(cl.K, "meta-chaos/armed")
	cl.Spawn("chaos", func(p *sim.Proc) {
		srv := armed.Recv(p).(*storage.Server)
		served := cl.Metrics().Counter("rpc." + srv.Device().Name() + ".served")
		base := served.Value()
		for i := 0; served.Value() == base; i++ {
			if i == 1_000_000 {
				t.Errorf("first-choice spare never served the re-home's create")
				return
			}
			p.Sleep(time.Microsecond)
		}
		srv.Crash()
	})

	cl.Spawn("app", func(p *sim.Proc) {
		if err := c.Login(p, "alice", "pa"); err != nil {
			t.Fatalf("login: %v", err)
		}
		// One column, two copies, two mirrors on five servers: the mirrors
		// share no server with the data, so the dead one takes no data
		// object with it and the re-home is the rebuild's only storage work.
		fs, err := lwfspfs.Format(p, c, "/vol0",
			lwfspfs.Options{StripeUnit: 64 << 10, Stripes: 1, Scheme: stripe.Replica})
		if err != nil {
			t.Fatalf("format: %v", err)
		}
		f, err := fs.Create(p, "/data.bin")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		data := make([]byte, 96<<10)
		rand.New(rand.NewSource(73)).Read(data)
		if _, err := f.WriteAt(p, 0, payloadOf(data)); err != nil {
			t.Fatalf("write: %v", err)
		}
		refs := f.MetaRefs()
		live, dead := storage.TargetOf(refs[0]), storage.TargetOf(refs[1])
		for _, o := range f.Layout().Objs {
			if storage.TargetOf(o) == dead {
				t.Fatalf("data object shares the victim mirror's server: %v", f.Layout().Objs)
			}
		}
		crashTarget(l, dead)

		// The re-home's first choice: the first server in spare order that
		// is neither dead nor the surviving mirror's host.
		var first *storage.Server
		for _, srv := range l.Servers {
			if tg := (storage.Target{Node: srv.Node(), Port: srv.RPCPort()}); tg != dead && tg != live {
				first = srv
				break
			}
		}
		firstT := storage.Target{Node: first.Node(), Port: first.RPCPort()}
		armed.Send(first)

		if err := fs.Rebuild(p, "/data.bin", dead); err != nil {
			t.Fatalf("rebuild with a spare dying mid-placement: %v", err)
		}
		if !first.Down() {
			t.Fatalf("chaos never crashed the first-choice spare")
		}
		g, degraded, err := openDegraded(p, cl, fs, "/data.bin")
		if err != nil {
			t.Fatalf("open after rebuild: %v", err)
		}
		if degraded {
			t.Errorf("open degraded after rebuild")
		}
		got := g.MetaRefs()
		if len(got) != 2 {
			t.Fatalf("rebuild left %d metadata mirrors, want the full set of 2: %v", len(got), got)
		}
		for _, r := range got {
			if tg := storage.TargetOf(r); tg == dead || tg == firstT {
				t.Fatalf("mirror set references a dead server: %v", got)
			}
		}
		if pl, err := g.ReadAt(p, 0, int64(len(data))); err != nil || !bytes.Equal(pl.Data, data) {
			t.Fatalf("read after rebuild mismatch: %v", err)
		}
		// The spare's provisional mirror was never committed: its journal
		// replay removes it.
		if removed, err := first.Restart(p); err != nil || removed != 1 {
			t.Errorf("spare restart removed %d orphans (err %v), want its 1 provisional mirror", removed, err)
		}
	})
	run(t, cl)
	if n := cl.Metrics().Snapshot().Sum("rebuild.meta_rehomed"); n != 1 {
		t.Errorf("rebuild.meta_rehomed = %v, want 1", n)
	}
}

// MetaCopies persists in the superblock: a fresh Mount sees the formatted
// value and creates files with that many mirrors.
func TestMetaCopiesPersistAcrossMount(t *testing.T) {
	cl, l := metaCluster()
	c := cl.NewClient(l, 0)
	cl.Spawn("app", func(p *sim.Proc) {
		if err := c.Login(p, "alice", "pa"); err != nil {
			t.Fatalf("login: %v", err)
		}
		fs, err := lwfspfs.Format(p, c, "/vol0",
			lwfspfs.Options{StripeUnit: 64 << 10, Scheme: stripe.Replica, MetaCopies: 3})
		if err != nil {
			t.Fatalf("format: %v", err)
		}
		m, err := lwfspfs.Mount(p, c, "/vol0", fs.Container())
		if err != nil {
			t.Fatalf("mount: %v", err)
		}
		f, err := m.Create(p, "/data.bin")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if got := len(f.MetaRefs()); got != 3 {
			t.Fatalf("mounted fs created %d metadata mirrors, want 3", got)
		}
	})
	run(t, cl)
}

// A flush whose mirror write timed out drops its encoding buffer: the dead
// server may still store the bytes it pulled, so the next flush must not
// encode into them. A flush every mirror acknowledged keeps its buffer.
func TestTimedOutFlushDropsItsBuffer(t *testing.T) {
	cl, l := metaCluster()
	c := cl.NewClient(l, 0)
	c.SetRetry(pfsRetry, 97)
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
		if _, err := f.WriteAt(p, 0, synthetic(4<<10)); err != nil {
			t.Fatalf("write: %v", err)
		}
		held := f.FlushBufferForTest()
		if held == nil {
			t.Fatal("a flush every mirror acknowledged kept no buffer")
		}
		crashTarget(l, storage.TargetOf(f.MetaRefs()[1]))
		if _, err := f.WriteAt(p, 4<<10, synthetic(4<<10)); err != nil {
			t.Fatalf("write with a dead mirror: %v", err)
		}
		if buf := f.FlushBufferForTest(); buf != nil {
			t.Fatalf("the handle still holds the buffer of a flush whose mirror write timed out (%d bytes)", len(buf))
		}
		if _, err := f.WriteAt(p, 8<<10, synthetic(4<<10)); err != nil {
			t.Fatalf("write on the live mirror: %v", err)
		}
		switch buf := f.FlushBufferForTest(); {
		case buf == nil:
			t.Error("a flush the live mirror acknowledged kept no buffer")
		case &buf[:1][0] == &held[:1][0]:
			t.Error("a flush encoded into the buffer a timed-out flush dropped")
		}
		if err := f.Close(p); err != nil {
			t.Fatalf("close: %v", err)
		}
	})
	run(t, cl)
}
