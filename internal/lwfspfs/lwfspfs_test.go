package lwfspfs_test

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"lwfs/internal/authz"
	"lwfs/internal/cluster"
	"lwfs/internal/lwfspfs"
	"lwfs/internal/naming"
	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/sim"
	"lwfs/internal/testrig"
	"lwfs/internal/txn"
)

const mb = 1 << 20

func payloadOf(b []byte) netsim.Payload   { return netsim.BytesPayload(b) }
func synthetic(size int64) netsim.Payload { return netsim.SyntheticPayload(size) }
func alwaysFail(txn.ID) bool              { return true }

func smallCluster() (*cluster.Cluster, *cluster.LWFS) {
	spec := cluster.DevCluster()
	spec.ComputeNodes = 4
	spec = spec.WithServers(4)
	cl := cluster.New(spec)
	cl.RegisterUser("alice", "pa")
	cl.RegisterUser("bob", "pb")
	return cl, cl.DeployLWFS()
}

func run(t *testing.T, cl *cluster.Cluster) {
	t.Helper()
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// totalObjects counts the live objects in the file system's container
// (journal objects live in the reserved system container and don't count).
func totalObjects(l *cluster.LWFS, cid authz.ContainerID) int {
	n := 0
	for _, srv := range l.Servers {
		n += len(srv.Device().ListContainer(osd.ContainerID(cid)))
	}
	return n
}

func TestFormatCreateWriteReadRoundTrip(t *testing.T) {
	cl, l := smallCluster()
	_ = l
	c := cl.NewClient(l, 0)
	cl.Spawn("app", func(p *sim.Proc) {
		if err := c.Login(p, "alice", "pa"); err != nil {
			t.Fatalf("login: %v", err)
		}
		fs, err := lwfspfs.Format(p, c, "/vol0", lwfspfs.Options{StripeUnit: 64 << 10})
		if err != nil {
			t.Fatalf("format: %v", err)
		}
		f, err := fs.Create(p, "/data.bin")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		data := make([]byte, 500_000) // crosses stripe units and servers
		rng := rand.New(rand.NewSource(3))
		rng.Read(data)
		if _, err := f.WriteAt(p, 0, payloadOf(data)); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err := f.ReadAt(p, 0, int64(len(data)))
		if err != nil || !bytes.Equal(got.Data, data) {
			t.Fatalf("read mismatch: %v", err)
		}
		got, err = f.ReadAt(p, 70_001, 200_000)
		if err != nil || !bytes.Equal(got.Data, data[70_001:270_001]) {
			t.Fatalf("offset read mismatch: %v", err)
		}
		if err := f.Sync(p); err != nil {
			t.Fatalf("sync: %v", err)
		}
		if err := f.Close(p); err != nil {
			t.Fatalf("close: %v", err)
		}
	})
	run(t, cl)
}

func TestReadOnlyMountAcrossPrincipals(t *testing.T) {
	cl, l := smallCluster()
	a := cl.NewClient(l, 0)
	b := cl.NewClient(l, 1)
	handoff := sim.NewMailbox(cl.K, "fsinfo")
	data := []byte("persisted through metadata object")
	cl.Spawn("alice", func(p *sim.Proc) {
		a.Login(p, "alice", "pa")
		fs, err := lwfspfs.Format(p, a, "/vol1", lwfspfs.Options{})
		if err != nil {
			t.Fatalf("format: %v", err)
		}
		f, err := fs.Create(p, "/shared.txt")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, err := f.WriteAt(p, 0, payloadOf(data)); err != nil {
			t.Fatalf("write: %v", err)
		}
		f.Close(p)
		for _, op := range []authz.Op{authz.OpRead, authz.OpList} {
			if err := a.SetACL(p, fs.Container(), op, "bob", true); err != nil {
				t.Fatalf("acl: %v", err)
			}
		}
		handoff.Send(fs.Container())
	})
	cl.Spawn("bob", func(p *sim.Proc) {
		cid := handoff.Recv(p).(authz.ContainerID)
		if err := b.Login(p, "bob", "pb"); err != nil {
			t.Fatalf("login: %v", err)
		}
		fs, err := lwfspfs.MountReadOnly(p, b, "/vol1", cid)
		if err != nil {
			t.Fatalf("mount: %v", err)
		}
		f, err := fs.Open(p, "/shared.txt")
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		got, err := f.ReadAt(p, 0, int64(len(data)))
		if err != nil || !bytes.Equal(got.Data, data) {
			t.Fatalf("read: %q %v", got.Data, err)
		}
		// Writes are refused: bob holds no write capability.
		if _, err := f.WriteAt(p, 0, payloadOf([]byte("nope"))); err == nil {
			t.Fatal("read-only mount accepted a write")
		}
	})
	run(t, cl)
}

func TestMkdirListRemove(t *testing.T) {
	cl, l := smallCluster()
	c := cl.NewClient(l, 0)
	cl.Spawn("app", func(p *sim.Proc) {
		c.Login(p, "alice", "pa")
		fs, _ := lwfspfs.Format(p, c, "/vol2", lwfspfs.Options{})
		fs.Mkdir(p, "/sub")
		fs.Create(p, "/sub/a")
		fs.Create(p, "/sub/b")
		fs.Create(p, "/top")
		names, err := fs.List(p, "/sub")
		if err != nil || !reflect.DeepEqual(names, []string{"a", "b"}) {
			t.Fatalf("list sub: %v %v", names, err)
		}
		names, err = fs.List(p, "/")
		if err != nil || !reflect.DeepEqual(names, []string{"sub", "top"}) {
			t.Fatalf("list root: %v %v", names, err)
		}
		if err := fs.Remove(p, "/sub/a"); err != nil {
			t.Fatalf("remove: %v", err)
		}
		if _, err := fs.Open(p, "/sub/a"); !errors.Is(err, naming.ErrNotFound) {
			t.Fatalf("open removed: %v", err)
		}
	})
	run(t, cl)
}

func TestRemoveFreesObjects(t *testing.T) {
	cl, l := smallCluster()
	c := cl.NewClient(l, 0)
	cl.Spawn("app", func(p *sim.Proc) {
		c.Login(p, "alice", "pa")
		fs, _ := lwfspfs.Format(p, c, "/vol6", lwfspfs.Options{})
		before := totalObjects(l, fs.Container())
		f, err := fs.Create(p, "/temp")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		// Two 1 MiB columns of four: two data objects and the metadata
		// record; the other two columns stay holes.
		if _, err := f.WriteAt(p, 0, synthetic(2*mb)); err != nil {
			t.Fatalf("write: %v", err)
		}
		f.Close(p)
		if got := totalObjects(l, fs.Container()) - before; got != 3 {
			t.Fatalf("file holds %d objects, want 3", got)
		}
		if err := fs.Remove(p, "/temp"); err != nil {
			t.Fatalf("remove: %v", err)
		}
		if got := totalObjects(l, fs.Container()); got != before {
			t.Fatalf("leaked objects: %d -> %d", before, got)
		}
	})
	run(t, cl)
}

func TestConcurrentWritersSerializeViaLocks(t *testing.T) {
	cl, l := smallCluster()
	a := cl.NewClient(l, 0)
	b := cl.NewClient(l, 1)
	ready := sim.NewMailbox(cl.K, "ready")
	var aDone, bDone sim.Time
	cl.Spawn("a", func(p *sim.Proc) {
		a.Login(p, "alice", "pa")
		fs, _ := lwfspfs.Format(p, a, "/vol3", lwfspfs.Options{})
		f, err := fs.Create(p, "/contended")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		for _, op := range authz.AllOps {
			if err := a.SetACL(p, fs.Container(), op, "bob", true); err != nil {
				t.Fatalf("acl %v: %v", op, err)
			}
		}
		ready.Send(fs.Container())
		if _, err := f.WriteAt(p, 0, synthetic(16*mb)); err != nil {
			t.Fatalf("a write: %v", err)
		}
		aDone = p.Now()
	})
	cl.Spawn("b", func(p *sim.Proc) {
		cid := ready.Recv(p).(authz.ContainerID)
		b.Login(p, "bob", "pb")
		fs, err := lwfspfs.Mount(p, b, "/vol3", cid)
		if err != nil {
			t.Fatalf("mount: %v", err)
		}
		f, err := fs.Open(p, "/contended")
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if _, err := f.WriteAt(p, 16*mb, synthetic(16*mb)); err != nil {
			t.Fatalf("b write: %v", err)
		}
		bDone = p.Now()
	})
	run(t, cl)
	// The exclusive file lock serializes the two writes: whoever finishes
	// second must take at least ~2x one write's service time.
	later := aDone
	if bDone > later {
		later = bDone
	}
	oneWrite := 16.0 / (95.0 * 4) // 16MB striped over 4 x 95MB/s disks
	if later.Duration().Seconds() < 2*oneWrite*0.8 {
		t.Fatalf("writes overlapped despite exclusive lock: done at %v", later)
	}
}

func TestCreateAbortsCleanly(t *testing.T) {
	cl, l := smallCluster()
	c := cl.NewClient(l, 0)
	cl.Spawn("app", func(p *sim.Proc) {
		c.Login(p, "alice", "pa")
		fs, err := lwfspfs.Format(p, c, "/vol5", lwfspfs.Options{})
		if err != nil {
			t.Fatalf("format: %v", err)
		}
		objectsBefore := totalObjects(l, fs.Container())
		for _, srv := range l.Servers {
			srv.Participant().FailPrepare = alwaysFail
		}
		if _, err := fs.Create(p, "/doomed"); err == nil {
			t.Fatal("create succeeded with failing participants")
		}
		for _, srv := range l.Servers {
			srv.Participant().FailPrepare = nil
		}
		if got := totalObjects(l, fs.Container()); got != objectsBefore {
			t.Fatalf("object debris after aborted create: %d -> %d", objectsBefore, got)
		}
		if _, err := fs.Open(p, "/doomed"); !errors.Is(err, naming.ErrNotFound) {
			t.Fatalf("name debris: %v", err)
		}
		if _, err := fs.Create(p, "/fine"); err != nil {
			t.Fatalf("create after recovery: %v", err)
		}
	})
	run(t, cl)
}

// Property: WriteAt/ReadAt at arbitrary offsets matches a flat byte model.
func TestFileModelProperty(t *testing.T) {
	prop := func(seed int64) bool {
		cl, l := smallCluster()
		c := cl.NewClient(l, 0)
		rng := rand.New(rand.NewSource(seed))
		ok := true
		cl.Spawn("app", func(p *sim.Proc) {
			c.Login(p, "alice", "pa")
			fs, err := lwfspfs.Format(p, c, "/volp", lwfspfs.Options{StripeUnit: 8 << 10})
			if err != nil {
				ok = false
				return
			}
			f, err := fs.Create(p, "/f")
			if err != nil {
				ok = false
				return
			}
			model := make([]byte, 200_000)
			var hi int64
			for i := 0; i < 5; i++ {
				off := int64(rng.Intn(100_000))
				data := make([]byte, rng.Intn(60_000)+1)
				rng.Read(data)
				if _, err := f.WriteAt(p, off, payloadOf(data)); err != nil {
					ok = false
					return
				}
				copy(model[off:], data)
				if end := off + int64(len(data)); end > hi {
					hi = end
				}
			}
			if f.Size() != hi {
				ok = false
				return
			}
			got, err := f.ReadAt(p, 0, f.Size())
			if err != nil {
				ok = false
				return
			}
			for i := int64(0); i < f.Size(); i++ {
				var have byte
				if got.Data != nil {
					have = got.Data[i]
				}
				if have != model[i] {
					ok = false
					return
				}
			}
		})
		if err := cl.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// Steady-state overwrites (size unchanged) must not pay the metadata RPC:
// only size-growing writes flush the layout record.
func TestSteadyStateWriteSkipsMetadataRPC(t *testing.T) {
	cl, l := smallCluster()
	c := cl.NewClient(l, 0)
	served := func() int64 {
		var n int64
		for _, srv := range l.Servers {
			n += testrig.Metric(cl.Metrics(), "rpc."+srv.Device().Name()+".served")
		}
		return n
	}
	cl.Spawn("app", func(p *sim.Proc) {
		c.Login(p, "alice", "pa")
		fs, _ := lwfspfs.Format(p, c, "/volm", lwfspfs.Options{StripeUnit: 64 << 10})
		f, err := fs.Create(p, "/steady")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		// Growing write: data RPC + metadata flush.
		if _, err := f.WriteAt(p, 0, synthetic(32<<10)); err != nil {
			t.Fatalf("write: %v", err)
		}
		before := served()
		// Overwrite within the existing size: exactly one data RPC, no
		// metadata write.
		if _, err := f.WriteAt(p, 0, synthetic(32<<10)); err != nil {
			t.Fatalf("overwrite: %v", err)
		}
		if got := served() - before; got != 1 {
			t.Fatalf("steady-state write issued %d storage RPCs, want 1", got)
		}
		before = served()
		// Growing write again (within one unit): data RPC + metadata flush = 2.
		if _, err := f.WriteAt(p, 32<<10, synthetic(16<<10)); err != nil {
			t.Fatalf("grow: %v", err)
		}
		if got := served() - before; got != 2 {
			t.Fatalf("growing write issued %d storage RPCs, want 2", got)
		}
	})
	run(t, cl)
}

// Reads truncated at EOF: ReadAt clamps to the logical size and returns
// exactly the bytes present.
func TestReadTruncatedAtEOF(t *testing.T) {
	cl, l := smallCluster()
	c := cl.NewClient(l, 0)
	cl.Spawn("app", func(p *sim.Proc) {
		c.Login(p, "alice", "pa")
		fs, _ := lwfspfs.Format(p, c, "/vole", lwfspfs.Options{StripeUnit: 8 << 10})
		f, err := fs.Create(p, "/tail")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		data := make([]byte, 100_000)
		rng := rand.New(rand.NewSource(9))
		rng.Read(data)
		if _, err := f.WriteAt(p, 0, payloadOf(data)); err != nil {
			t.Fatalf("write: %v", err)
		}
		// Read far past EOF: clamped to the logical size.
		got, err := f.ReadAt(p, 60_000, 1<<20)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if got.Size != 40_000 || !bytes.Equal(got.Data, data[60_000:]) {
			t.Fatalf("EOF read size %d, want 40000", got.Size)
		}
		// Read starting at EOF: empty.
		got, err = f.ReadAt(p, 100_000, 10)
		if err != nil || got.Size != 0 {
			t.Fatalf("read at EOF: size=%d err=%v", got.Size, err)
		}
	})
	run(t, cl)
}

// The engine externalizes exactly the bytes written: four overlapping
// writes across unit and column boundaries read back as the same writes
// applied to a byte slice.
func TestOverlappingWritesReadBack(t *testing.T) {
	cl, l := smallCluster()
	c := cl.NewClient(l, 0)
	cl.Spawn("app", func(p *sim.Proc) {
		c.Login(p, "alice", "pa")
		fs, _ := lwfspfs.Format(p, c, "/volsp", lwfspfs.Options{StripeUnit: 16 << 10})
		f, _ := fs.Create(p, "/f")
		rng := rand.New(rand.NewSource(21))
		var want []byte
		for i := 0; i < 4; i++ {
			data := make([]byte, 70_000)
			rng.Read(data)
			off := i * 50_000
			if _, err := f.WriteAt(p, int64(off), payloadOf(data)); err != nil {
				t.Fatalf("write: %v", err)
			}
			if end := off + len(data); end > len(want) {
				want = append(want, make([]byte, end-len(want))...)
			}
			copy(want[off:], data)
		}
		got, err := f.ReadAt(p, 0, f.Size())
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got.Data, want) {
			t.Fatalf("read back %d bytes that differ from the %d written", len(got.Data), len(want))
		}
	})
	run(t, cl)
}

// Bytes a read returned stay as they were. A read inside one stored frozen
// unit comes back by reference, from the server's extent through the reply
// to the caller, and neither a later overwrite of the same range, copied or
// frozen, nor a truncate of the object under it, nor removing the file,
// changes them.
func TestReadBytesOutliveOverwriteAndTruncate(t *testing.T) {
	cl, l := smallCluster()
	c := cl.NewClient(l, 0)
	cl.Spawn("app", func(p *sim.Proc) {
		if err := c.Login(p, "alice", "pa"); err != nil {
			t.Fatalf("login: %v", err)
		}
		const unit = 64 << 10
		fs, err := lwfspfs.Format(p, c, "/vol0", lwfspfs.Options{StripeUnit: unit})
		if err != nil {
			t.Fatalf("format: %v", err)
		}
		caps, err := c.GetCaps(p, fs.Container(), authz.AllOps...)
		if err != nil {
			t.Fatalf("caps: %v", err)
		}
		f, err := fs.Create(p, "/data.bin")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		rng := rand.New(rand.NewSource(5))
		fresh := func() []byte {
			b := make([]byte, unit)
			rng.Read(b)
			return b
		}
		data := fresh()
		if _, err := f.WriteAt(p, 0, netsim.Payload{Size: unit, Data: data, Frozen: true}); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err := f.ReadAt(p, 100, 4000)
		if err != nil || !bytes.Equal(got.Data, data[100:4100]) {
			t.Fatalf("read: %v", err)
		}
		if !got.Frozen || cap(got.Data) != len(got.Data) {
			t.Fatalf("a read inside one kept unit came back copied (frozen %v) or with spare capacity (%d > %d)",
				got.Frozen, cap(got.Data), len(got.Data))
		}
		steps := []struct {
			what string
			do   func() error
		}{
			{"a copied overwrite", func() error { _, err := f.WriteAt(p, 0, payloadOf(fresh())); return err }},
			{"a frozen overwrite", func() error {
				_, err := f.WriteAt(p, 0, netsim.Payload{Size: unit, Data: fresh(), Frozen: true})
				return err
			}},
			{"a truncate into the range", func() error { return c.Truncate(p, f.Layout().Objs[0], caps, 2000) }},
			{"a write where the truncate cut", func() error { _, err := f.WriteAt(p, 2000, payloadOf(fresh()[:3000])); return err }},
			{"removing the file", func() error { return fs.Remove(p, "/data.bin") }},
		}
		for _, s := range steps {
			if err := s.do(); err != nil {
				t.Fatalf("%s: %v", s.what, err)
			}
			if !bytes.Equal(got.Data, data[100:4100]) {
				t.Fatalf("%s changed bytes a read had returned", s.what)
			}
		}
	})
	run(t, cl)
}
