package lwfspfs_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lwfs/internal/core"
	"lwfs/internal/lwfspfs"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/stripe"
	"lwfs/internal/testrig"
	"lwfs/internal/txn"
)

// nextServer is the server after the one hosting ref in c's rotation: where
// a file whose column 0 lives on ref places its column 1.
func nextServer(c *core.Client, ref storage.ObjRef) storage.Target {
	s := c.Servers()
	return s[(slices.Index(s, storage.TargetOf(ref))+1)%len(s)]
}

func randomBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// Create allocates column 0 — every copy, and the parity object — and
// nothing else; a write allocates exactly the columns it touches.
func TestLazyCreateAllocatesColumnZero(t *testing.T) {
	for _, tc := range []struct {
		name       string
		opts       lwfspfs.Options
		atCreate   int // data objects plus metadata mirrors
		perColumn  int
		metaMirror int
	}{
		{"raid0", lwfspfs.Options{StripeUnit: 64 << 10}, 1, 1, 1},
		{"replica", lwfspfs.Options{StripeUnit: 64 << 10, Scheme: stripe.Replica}, 2, 2, 2},
		{"parity", lwfspfs.Options{StripeUnit: 64 << 10, Scheme: stripe.Parity}, 2, 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, l := smallCluster()
			c := cl.NewClient(l, 0)
			cl.Spawn("app", func(p *sim.Proc) {
				c.Login(p, "alice", "pa")
				fs, err := lwfspfs.Format(p, c, "/vol", tc.opts)
				if err != nil {
					t.Fatalf("format: %v", err)
				}
				before := totalObjects(l, fs.Container())
				f, err := fs.Create(p, "/f")
				if err != nil {
					t.Fatalf("create: %v", err)
				}
				if got := totalObjects(l, fs.Container()) - before; got != tc.atCreate+tc.metaMirror {
					t.Fatalf("create made %d objects, want %d", got, tc.atCreate+tc.metaMirror)
				}
				// Columns 0 and 1 of the first stripe.
				if _, err := f.WriteAt(p, 0, synthetic(100<<10)); err != nil {
					t.Fatalf("write: %v", err)
				}
				if got := totalObjects(l, fs.Container()) - before; got != tc.atCreate+tc.metaMirror+tc.perColumn {
					t.Fatalf("after a two-column write: %d objects, want %d", got, tc.atCreate+tc.metaMirror+tc.perColumn)
				}
				if got := len(f.Layout().Targets()); got != tc.atCreate+tc.perColumn {
					t.Fatalf("Sync would flush %d servers, want %d", got, tc.atCreate+tc.perColumn)
				}
			})
			run(t, cl)
		})
	}
}

// A handle that last saw every column but 0 as a hole, whose size-growing
// write lands only in column 0 after another client filled those columns,
// flushes a record that still names the other client's objects and size.
func TestStaleGrowingWriteKeepsFilledHoles(t *testing.T) {
	const unit = 4 << 10
	cl, l := smallCluster()
	a := cl.NewClient(l, 0)
	b := cl.NewClient(l, 1)
	cl.Spawn("app", func(p *sim.Proc) {
		a.Login(p, "alice", "pa")
		b.Login(p, "alice", "pa")
		fs, err := lwfspfs.Format(p, a, "/vol", lwfspfs.Options{StripeUnit: unit})
		if err != nil {
			t.Fatalf("format: %v", err)
		}
		f, err := fs.Create(p, "/shared")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, err := f.WriteAt(p, 0, payloadOf([]byte("head"))); err != nil {
			t.Fatalf("write: %v", err)
		}
		fsb, err := lwfspfs.Mount(p, b, "/vol", fs.Container())
		if err != nil {
			t.Fatalf("mount: %v", err)
		}
		g, err := fsb.Open(p, "/shared")
		if err != nil {
			t.Fatalf("open b: %v", err)
		}
		width := int64(len(f.Layout().Objs))
		data := randomBytes(int((width-1)*unit), 9)
		if _, err := g.WriteAt(p, unit, payloadOf(data)); err != nil {
			t.Fatalf("fill columns 1..%d: %v", width-1, err)
		}
		// f still sees every column but 0 as a hole and size 4; this write
		// grows its size inside column 0 only.
		if _, err := f.WriteAt(p, 4, payloadOf([]byte("more"))); err != nil {
			t.Fatalf("stale append: %v", err)
		}
		h, err := fs.Open(p, "/shared")
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if h.Size() != unit+int64(len(data)) {
			t.Fatalf("size %d after the stale append, want %d", h.Size(), unit+int64(len(data)))
		}
		got, err := h.ReadAt(p, unit, int64(len(data)))
		if err != nil || !bytes.Equal(got.Data, data) {
			t.Fatalf("the other client's acknowledged bytes are lost (err %v)", err)
		}
		got, err = h.ReadAt(p, 0, 8)
		if err != nil || string(got.Data) != "headmore" {
			t.Fatalf("column 0 reads %q (err %v), want headmore", got.Data, err)
		}
	})
	run(t, cl)
}

// A handle whose view has no hole, whose write grows its own stale size to
// less than the size another client grew the file to, keeps the larger size.
func TestStaleWriteKeepsGrownSize(t *testing.T) {
	cl, l := smallCluster()
	a := cl.NewClient(l, 0)
	b := cl.NewClient(l, 1)
	cl.Spawn("app", func(p *sim.Proc) {
		a.Login(p, "alice", "pa")
		b.Login(p, "alice", "pa")
		fs, err := lwfspfs.Format(p, a, "/vol", lwfspfs.Options{StripeUnit: 4 << 10, Stripes: 1})
		if err != nil {
			t.Fatalf("format: %v", err)
		}
		f, err := fs.Create(p, "/log")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, err := f.WriteAt(p, 0, payloadOf(randomBytes(100, 1))); err != nil {
			t.Fatalf("write: %v", err)
		}
		fsb, err := lwfspfs.Mount(p, b, "/vol", fs.Container())
		if err != nil {
			t.Fatalf("mount: %v", err)
		}
		g, err := fsb.Open(p, "/log")
		if err != nil {
			t.Fatalf("open b: %v", err)
		}
		tail := randomBytes(100, 2)
		if _, err := g.WriteAt(p, 1000, payloadOf(tail)); err != nil {
			t.Fatalf("write b: %v", err)
		}
		// f still sees size 100; this write grows that to 200.
		if _, err := f.WriteAt(p, 100, payloadOf(randomBytes(100, 3))); err != nil {
			t.Fatalf("stale write: %v", err)
		}
		h, err := fs.Open(p, "/log")
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if h.Size() != 1100 {
			t.Fatalf("size %d after the stale write, want 1100", h.Size())
		}
		if got, err := h.ReadAt(p, 1000, 100); err != nil || !bytes.Equal(got.Data, tail) {
			t.Fatalf("the other client's acknowledged bytes are lost (err %v)", err)
		}
	})
	run(t, cl)
}

// A handle opened before a Rebuild re-homed a copy flushes the re-homed
// refs, not its own stale ones naming the dead server.
func TestStaleWriteKeepsRebuild(t *testing.T) {
	cl, l := smallCluster()
	c := cl.NewClient(l, 0)
	c.SetRetry(pfsRetry, 71)
	cl.Spawn("app", func(p *sim.Proc) {
		c.Login(p, "alice", "pa")
		fs, err := lwfspfs.Format(p, c, "/vol",
			lwfspfs.Options{StripeUnit: 4 << 10, Stripes: 1, Scheme: stripe.Replica})
		if err != nil {
			t.Fatalf("format: %v", err)
		}
		f, err := fs.Create(p, "/f")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		data := randomBytes(8000, 4)
		if _, err := f.WriteAt(p, 0, payloadOf(data[:6000])); err != nil {
			t.Fatalf("write: %v", err)
		}
		dead := storage.TargetOf(f.Layout().Objs[1])
		for _, ref := range f.MetaRefs() {
			if storage.TargetOf(ref) == dead {
				t.Fatal("a metadata mirror shares the crashed server: the test wants data copies only")
			}
		}
		crashTarget(l, dead)
		if err := fs.Rebuild(p, "/f", dead); err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		// f's view still names the dead server; this write grows the size.
		if _, err := f.WriteAt(p, 6000, payloadOf(data[6000:])); err != nil {
			t.Fatalf("stale write: %v", err)
		}
		g, err := fs.Open(p, "/f")
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		for i, o := range g.Layout().Objs {
			if storage.TargetOf(o) == dead {
				t.Fatalf("object %d names the dead server again: the stale flush undid the rebuild", i)
			}
		}
		if got, err := g.ReadAt(p, 0, int64(len(data))); err != nil || !bytes.Equal(got.Data, data) {
			t.Fatalf("read back: %v", err)
		}
	})
	run(t, cl)
}

// A handle opened before another client wrote into a hole inside the file's
// size reads that client's bytes, not zeros.
func TestStaleHandleReadsFilledHole(t *testing.T) {
	const unit = 64 << 10
	cl, l := smallCluster()
	a := cl.NewClient(l, 0)
	b := cl.NewClient(l, 1)
	cl.Spawn("app", func(p *sim.Proc) {
		a.Login(p, "alice", "pa")
		b.Login(p, "alice", "pa")
		fs, err := lwfspfs.Format(p, a, "/vol", lwfspfs.Options{StripeUnit: unit})
		if err != nil {
			t.Fatalf("format: %v", err)
		}
		f, err := fs.Create(p, "/sparse")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		// Columns 0 and 2: column 1 is a hole inside the size.
		if _, err := f.WriteAt(p, 2*unit, payloadOf([]byte("tail"))); err != nil {
			t.Fatalf("write: %v", err)
		}
		stale, err := fs.Open(p, "/sparse")
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		staleWriter, err := fs.Open(p, "/sparse")
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if !stripe.IsHole(stale.Layout().Objs[1]) {
			t.Fatal("column 1 is not a hole")
		}
		fsb, err := lwfspfs.Mount(p, b, "/vol", fs.Container())
		if err != nil {
			t.Fatalf("mount: %v", err)
		}
		g, err := fsb.Open(p, "/sparse")
		if err != nil {
			t.Fatalf("open b: %v", err)
		}
		data := randomBytes(1000, 5)
		if _, err := g.WriteAt(p, unit+10, payloadOf(data)); err != nil {
			t.Fatalf("write into the hole: %v", err)
		}
		got, err := stale.ReadAt(p, unit+10, int64(len(data)))
		if err != nil || !bytes.Equal(got.Data, data) {
			t.Fatalf("stale handle read %d bytes (err %v), want the other client's", len(got.Data), err)
		}
		// A stale handle's write into another stretch of column 1 reuses the
		// other client's object instead of allocating the column again.
		if _, err := staleWriter.WriteAt(p, unit+5000, payloadOf([]byte("x"))); err != nil {
			t.Fatalf("stale write: %v", err)
		}
		if staleWriter.Layout().Objs[1] != g.Layout().Objs[1] {
			t.Fatalf("column 1 allocated twice: %v vs %v", staleWriter.Layout().Objs[1], g.Layout().Objs[1])
		}
		got, err = stale.ReadAt(p, unit+10, int64(len(data)))
		if err != nil || !bytes.Equal(got.Data, data) {
			t.Fatalf("the other client's bytes did not survive the stale write: %v", err)
		}
	})
	run(t, cl)
}

// A write into a hole whose placement target is dead lands on a spare under
// every scheme: the bytes read back exactly, no ref names the dead server,
// and Rebuild finds nothing of the file there to lose.
func TestWriteIntoHoleAfterCrash(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts lwfspfs.Options
	}{
		{"raid0", lwfspfs.Options{StripeUnit: 64 << 10}},
		{"replica", lwfspfs.Options{StripeUnit: 64 << 10, Scheme: stripe.Replica}},
		{"parity", lwfspfs.Options{StripeUnit: 64 << 10, Scheme: stripe.Parity}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, l := smallCluster()
			c := cl.NewClient(l, 0)
			c.SetRetry(pfsRetry, 51)
			cl.Spawn("app", func(p *sim.Proc) {
				c.Login(p, "alice", "pa")
				fs, err := lwfspfs.Format(p, c, "/vol", tc.opts)
				if err != nil {
					t.Fatalf("format: %v", err)
				}
				f, err := fs.Create(p, "/f")
				if err != nil {
					t.Fatalf("create: %v", err)
				}
				dead := nextServer(c, f.Layout().Objs[0])
				crashTarget(l, dead)
				data := randomBytes(300_000, 7)
				if _, err := f.WriteAt(p, 0, payloadOf(data)); err != nil {
					t.Fatalf("write: %v", err)
				}
				if err := f.Close(p); err != nil {
					t.Fatalf("close: %v", err)
				}
				g, err := fs.Open(p, "/f")
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				for i, o := range g.Layout().Objs {
					if stripe.IsHole(o) {
						t.Fatalf("object %d still a hole after a write over every column", i)
					}
					if storage.TargetOf(o) == dead {
						t.Fatalf("object %d placed on the dead server", i)
					}
				}
				got, err := g.ReadAt(p, 0, int64(len(data)))
				if err != nil || !bytes.Equal(got.Data, data) {
					t.Fatalf("read back: %v", err)
				}
				if err := fs.Rebuild(p, "/f", dead); err != nil {
					t.Fatalf("rebuild: %v", err)
				}
			})
			run(t, cl)
		})
	}
}

// A create whose column 0 hashes onto a dead server walks past it as a write
// into a hole does, under every scheme: no object or record lands on the
// dead server, a single record sits on the server column 0 moved to, and
// the file writes and reads back. Each chaos seed kills another server.
func TestCreateFailoverPastDeadServer(t *testing.T) {
	seed := testrig.SeedFromEnv(1)
	for _, tc := range []struct {
		name string
		opts lwfspfs.Options
	}{
		{"raid0", lwfspfs.Options{StripeUnit: 64 << 10}},
		{"replica", lwfspfs.Options{StripeUnit: 64 << 10, Scheme: stripe.Replica}},
		{"parity", lwfspfs.Options{StripeUnit: 64 << 10, Scheme: stripe.Parity}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, l := smallCluster()
			c := cl.NewClient(l, 0)
			c.SetRetry(pfsRetry, 81+seed)
			cl.Spawn("app", func(p *sim.Proc) {
				c.Login(p, "alice", "pa")
				fs, err := lwfspfs.Format(p, c, "/vol", tc.opts)
				if err != nil {
					t.Fatalf("format: %v", err)
				}
				dead := c.Servers()[int(seed)%len(c.Servers())]
				path := ""
				for i := 0; path == ""; i++ {
					if name := fmt.Sprintf("/f%d", i); c.Server(lwfspfs.PathHash(name)) == dead {
						path = name
					}
				}
				crashTarget(l, dead)
				noneOnDead := func(when string, f *lwfspfs.File) {
					for i, o := range f.Layout().Objs {
						if !stripe.IsHole(o) && storage.TargetOf(o) == dead {
							t.Fatalf("%s: object %d on the dead server", when, i)
						}
					}
					for _, r := range f.MetaRefs() {
						if storage.TargetOf(r) == dead {
							t.Fatalf("%s: a metadata record on the dead server", when)
						}
					}
				}
				f, err := fs.Create(p, path)
				if err != nil {
					t.Fatalf("create with column 0's server dead: %v", err)
				}
				noneOnDead("create", f)
				if tc.opts.Scheme == stripe.Raid0 {
					if rec, col0 := storage.TargetOf(f.MetaRefs()[0]), storage.TargetOf(f.Layout().Objs[0]); rec != col0 {
						t.Fatalf("the record sits on %v, column 0 moved to %v", rec, col0)
					}
				}
				data := randomBytes(300_000, 11)
				if _, err := f.WriteAt(p, 0, payloadOf(data)); err != nil {
					t.Fatalf("write: %v", err)
				}
				if err := f.Close(p); err != nil {
					t.Fatalf("close: %v", err)
				}
				g, err := fs.Open(p, path)
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				noneOnDead("write", g)
				if got, err := g.ReadAt(p, 0, int64(len(data))); err != nil || !bytes.Equal(got.Data, data) {
					t.Fatalf("read back: %v", err)
				}
			})
			run(t, cl)
		})
	}
}

// A fill whose commit aborts runs again; one that keeps aborting fails the
// write, leaves no object behind and keeps the hole a hole.
func TestAllocRetriesAbortedCommit(t *testing.T) {
	cl, l := smallCluster()
	c := cl.NewClient(l, 0)
	cl.Spawn("app", func(p *sim.Proc) {
		c.Login(p, "alice", "pa")
		fs, err := lwfspfs.Format(p, c, "/vol", lwfspfs.Options{StripeUnit: 64 << 10})
		if err != nil {
			t.Fatalf("format: %v", err)
		}
		f, err := fs.Create(p, "/f")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		before := totalObjects(l, fs.Container())
		for _, srv := range l.Servers {
			srv.Participant().FailPrepare = alwaysFail
		}
		if _, err := f.WriteAt(p, 64<<10, synthetic(10)); err == nil {
			t.Fatal("write allocated through aborting participants")
		}
		if got := totalObjects(l, fs.Container()); got != before {
			t.Fatalf("object debris after aborted allocations: %d -> %d", before, got)
		}
		if !stripe.IsHole(f.Layout().Objs[1]) {
			t.Fatal("aborted allocation left a ref behind")
		}
		votes := 0
		for _, srv := range l.Servers {
			srv.Participant().FailPrepare = func(txn.ID) bool { votes++; return votes == 1 }
		}
		data := randomBytes(10, 3)
		if _, err := f.WriteAt(p, 64<<10, payloadOf(data)); err != nil {
			t.Fatalf("write after one aborted allocation: %v", err)
		}
		if got, err := f.ReadAt(p, 64<<10, 10); err != nil || !bytes.Equal(got.Data, data) {
			t.Fatalf("read back: %v", err)
		}
	})
	run(t, cl)
}

// A parity file with a hole inside its size loses a server, rebuilds and
// reads back exactly, the hole still reading as zeros.
func TestParityHoleRebuild(t *testing.T) {
	const unit = 64 << 10
	cl, l := smallCluster()
	c := cl.NewClient(l, 0)
	c.SetRetry(pfsRetry, 61)
	cl.Spawn("app", func(p *sim.Proc) {
		c.Login(p, "alice", "pa")
		fs, err := lwfspfs.Format(p, c, "/vol", lwfspfs.Options{StripeUnit: unit, Scheme: stripe.Parity})
		if err != nil {
			t.Fatalf("format: %v", err)
		}
		f, err := fs.Create(p, "/f")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		data := make([]byte, 2*unit+3000)
		copy(data, randomBytes(unit, 8))
		copy(data[2*unit:], randomBytes(3000, 9))
		if _, err := f.WriteAt(p, 0, payloadOf(data[:unit])); err != nil {
			t.Fatalf("write column 0: %v", err)
		}
		if _, err := f.WriteAt(p, 2*unit, payloadOf(data[2*unit:])); err != nil {
			t.Fatalf("write column 2: %v", err)
		}
		if !stripe.IsHole(f.Layout().Objs[1]) {
			t.Fatal("column 1 is not a hole")
		}
		dead := storage.TargetOf(f.Layout().Objs[0])
		crashTarget(l, dead)
		if err := fs.Rebuild(p, "/f", dead); err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		g, err := fs.Open(p, "/f")
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if !stripe.IsHole(g.Layout().Objs[1]) {
			t.Fatal("rebuild allocated the hole")
		}
		got, err := g.ReadAt(p, 0, int64(len(data)))
		if err != nil || got.Data == nil || !bytes.Equal(got.Data, data) {
			t.Fatalf("read after rebuild: %v", err)
		}
	})
	run(t, cl)
}
