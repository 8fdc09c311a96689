package stripe_test

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"lwfs/internal/authz"
	"lwfs/internal/core"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/stripe"
)

// redundRetry arms the clients in degraded-path tests so a crashed server
// surfaces as ErrRPCTimeout instead of hanging the simulation.
var redundRetry = portals.RetryPolicy{
	MaxAttempts: 2,
	Timeout:     25 * time.Millisecond,
	Backoff:     time.Millisecond,
	Jitter:      100 * time.Microsecond,
}

// The satellite bugfix: metadata with a zero/negative stripe unit or no
// objects used to decode fine and blow up later with a divide-by-zero in
// Locate. Decode must reject it as ErrBadLayout instead.
func TestDecodeValidatesLayout(t *testing.T) {
	for _, bad := range []string{
		"size 10\nstripeunit 0\nobj 1 10 100\n",
		"size 10\nstripeunit -4\nobj 1 10 100\n",
		"size -1\nstripeunit 4\nobj 1 10 100\n",
		"size 10\nstripeunit 4\n", // zero objects
		"size 10\nstripeunit 4\nscheme replica 1\nobj 1 10 100\n",
		"size 10\nstripeunit 4\nscheme replica 2\nobj 1 10 100\nobj 2 10 101\nobj 3 10 102\n",
		"size 10\nstripeunit 4\nscheme parity\nobj 1 10 100\n",
		"size 10\nstripeunit 4\nscheme chasm\nobj 1 10 100\n",
	} {
		if _, err := stripe.Decode([]byte(bad)); !errors.Is(err, stripe.ErrBadLayout) {
			t.Errorf("Decode(%q) = %v, want ErrBadLayout", bad, err)
		}
	}
}

// RAID-0 layouts must keep emitting the exact legacy wire format (no scheme
// line), and redundant layouts must round-trip scheme and copies.
func TestRedundantCodecRoundTrip(t *testing.T) {
	l0 := testLayout(3, 4096)
	l0.Size = 999
	if bytes.Contains(l0.Encode(), []byte("scheme")) {
		t.Fatalf("raid0 encode grew a scheme line:\n%s", l0.Encode())
	}
	for _, l := range []stripe.Layout{
		l0,
		func() stripe.Layout {
			l := testLayout(4, 4096)
			l.Size = 12345
			l.Scheme = stripe.Replica
			l.Copies = 2
			return l
		}(),
		func() stripe.Layout {
			l := testLayout(4, 4096)
			l.Size = 777
			l.Scheme = stripe.Parity
			return l
		}(),
	} {
		got, err := stripe.Decode(l.Encode())
		if err != nil {
			t.Fatalf("%v roundtrip: %v", l.Scheme, err)
		}
		if !reflect.DeepEqual(got, l) {
			t.Fatalf("%v roundtrip mismatch:\n got %+v\nwant %+v", l.Scheme, got, l)
		}
	}
}

func TestObjectLength(t *testing.T) {
	l := testLayout(3, 10)
	l.Size = 95 // 10 units, last one 5 bytes: cols get 4/3/3 units
	for i, want := range []int64{35, 30, 30} {
		if got := l.ObjectLength(i); got != want {
			t.Errorf("ObjectLength(%d) = %d, want %d", i, got, want)
		}
	}
	r := testLayout(6, 10)
	r.Size, r.Scheme, r.Copies = 95, stripe.Replica, 2
	if got := r.ObjectLength(3); got != 35 { // copy 1 of column 0
		t.Errorf("replica ObjectLength(3) = %d, want 35", got)
	}
	p := testLayout(4, 10)
	p.Size, p.Scheme = 95, stripe.Parity
	if got := p.ObjectLength(3); got != 35 { // parity: longest column
		t.Errorf("parity ObjectLength(3) = %d, want 35", got)
	}
}

// makeRedundant creates the objects for a redundant layout: replica copy c
// of column i lands on server c*width+i, parity layouts use width+1
// consecutive servers — so distinct servers as long as the cluster has
// enough, matching how lwfspfs places them.
func makeRedundant(t *testing.T, p *sim.Proc, c *core.Client, caps core.CapSet,
	scheme stripe.Scheme, width, copies int, unit int64) stripe.Layout {
	t.Helper()
	l := stripe.Layout{Unit: unit, Scheme: scheme, Copies: copies}
	n := width
	switch scheme {
	case stripe.Replica:
		n = width * copies
	case stripe.Parity:
		n = width + 1
	}
	for i := 0; i < n; i++ {
		ref, err := c.CreateObject(p, c.Server(i%len(c.Servers())), caps)
		if err != nil {
			t.Fatalf("create object %d: %v", i, err)
		}
		l.Objs = append(l.Objs, ref)
	}
	return l
}

func appSetup(t *testing.T, p *sim.Proc, c *core.Client) core.CapSet {
	t.Helper()
	if err := c.Login(p, "app", "s3cret"); err != nil {
		t.Fatalf("login: %v", err)
	}
	cid, err := c.CreateContainer(p)
	if err != nil {
		t.Fatalf("container: %v", err)
	}
	caps, err := c.GetCaps(p, cid, authz.AllOps...)
	if err != nil {
		t.Fatalf("caps: %v", err)
	}
	return caps
}

// Replica layouts: writes mirror, and once a server crashes the read comes
// back bit-exact from the surviving copies, counted as degraded.
func TestReplicaDegradedRead(t *testing.T) {
	cl, lw := engineCluster(4)
	c := cl.NewClient(lw, 0)
	c.SetRetry(redundRetry, 5)
	cl.Spawn("app", func(p *sim.Proc) {
		caps := appSetup(t, p, c)
		eng := stripe.NewEngine(c, caps, 0)
		l := makeRedundant(t, p, c, caps, stripe.Replica, 2, 2, 8<<10)
		data := make([]byte, 100_000)
		rand.New(rand.NewSource(21)).Read(data)
		n, _, err := eng.WriteAtTolerant(p, l, 0, netsim.BytesPayload(data))
		if err != nil || n != int64(len(data)) {
			t.Fatalf("write: n=%d err=%v", n, err)
		}
		got, err := eng.ReadAt(p, l, 0, int64(len(data)))
		if err != nil || !bytes.Equal(got.Data, data) {
			t.Fatalf("healthy read mismatch: %v", err)
		}
		lw.Servers[0].Crash() // hosts copy 0 of column 0
		got, err = eng.ReadAt(p, l, 0, int64(len(data)))
		if err != nil || !bytes.Equal(got.Data, data) {
			t.Fatalf("degraded read mismatch: %v", err)
		}
		snap := cl.Metrics().Snapshot()
		if snap.Sum("stripe.*.degraded_reads") == 0 || snap.Sum("stripe.*.reconstructed_bytes") == 0 {
			t.Error("degraded-path instruments did not move")
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// A crashed server absorbs replica writes: the surviving copies land, the
// dead copies come back as tolerated failed targets.
func TestReplicaDegradedWrite(t *testing.T) {
	cl, lw := engineCluster(4)
	c := cl.NewClient(lw, 0)
	c.SetRetry(redundRetry, 6)
	cl.Spawn("app", func(p *sim.Proc) {
		caps := appSetup(t, p, c)
		eng := stripe.NewEngine(c, caps, 0)
		l := makeRedundant(t, p, c, caps, stripe.Replica, 2, 2, 8<<10)
		lw.Servers[2].Crash() // copy 1 of column 0
		data := make([]byte, 64_000)
		rand.New(rand.NewSource(22)).Read(data)
		n, failed, err := eng.WriteAtTolerant(p, l, 0, netsim.BytesPayload(data))
		if err != nil || n != int64(len(data)) {
			t.Fatalf("degraded write: n=%d err=%v", n, err)
		}
		if len(failed) != 1 || failed[0] != c.Server(2) {
			t.Fatalf("failed targets = %v, want [server 2]", failed)
		}
		got, err := eng.ReadAt(p, l, 0, int64(len(data)))
		if err != nil || !bytes.Equal(got.Data, data) {
			t.Fatalf("read after degraded write: %v", err)
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// RAID-0 is the one-copy case of the replica write: a column whose only
// object sits on a crashed server is lost, so the write fails with
// ErrUnrecoverable carrying the timeout (still fail-stop to a caller that
// classifies it), reports the dead target, and counts only the column that
// landed.
func TestRaid0WriteToDeadServerIsUnrecoverable(t *testing.T) {
	cl, lw := engineCluster(2)
	c := cl.NewClient(lw, 0)
	c.SetRetry(redundRetry, 14)
	cl.Spawn("app", func(p *sim.Proc) {
		caps := appSetup(t, p, c)
		eng := stripe.NewEngine(c, caps, 0)
		l := makeLayout(t, p, c, caps, 8<<10)
		lw.Servers[1].Crash() // column 1
		n, failed, err := eng.WriteAtTolerant(p, l, 0, netsim.SyntheticPayload(64_000))
		if !errors.Is(err, portals.ErrRPCTimeout) || !errors.Is(err, stripe.ErrUnrecoverable) {
			t.Fatalf("raid0 write to a dead server = %v, want a timeout and ErrUnrecoverable", err)
		}
		if n != 4*8<<10 { // column 0: units 0, 2, 4 and 6
			t.Errorf("write counted %d bytes, want column 0's %d", n, 4*8<<10)
		}
		if len(failed) != 1 || failed[0] != c.Server(1) {
			t.Errorf("failed targets = %v, want [server 1]", failed)
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// A RAID-0 column whose write fails for another reason than a dead server —
// here its object was removed — keeps its own error: no server was lost, so
// the write does not claim ErrUnrecoverable or report a target to fence.
func TestRaid0WriteKeepsNonFailStopErrors(t *testing.T) {
	cl, lw := engineCluster(2)
	c := cl.NewClient(lw, 0)
	cl.Spawn("app", func(p *sim.Proc) {
		caps := appSetup(t, p, c)
		eng := stripe.NewEngine(c, caps, 0)
		l := makeLayout(t, p, c, caps, 8<<10)
		if err := c.Remove(p, l.Objs[1], caps); err != nil {
			t.Fatalf("remove: %v", err)
		}
		_, failed, err := eng.WriteAtTolerant(p, l, 0, netsim.SyntheticPayload(64_000))
		if err == nil || errors.Is(err, stripe.ErrUnrecoverable) || portals.FailStop(err) {
			t.Fatalf("raid0 write to a removed object = %v, want its own error without ErrUnrecoverable", err)
		}
		if len(failed) != 0 {
			t.Errorf("failed targets = %v, want none", failed)
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// Engine.Sync tolerates dead servers while the layout survives them — every
// replica column keeps a copy, a parity group loses at most one object — and
// otherwise fails with ErrUnrecoverable carrying the timeouts. A RAID-0
// layout has no copy to spare. A server the caller's writes absorbed counts
// as lost even when its sync succeeds: its copy may miss bytes.
func TestSyncToleratesWhatTheLayoutSurvives(t *testing.T) {
	for _, tc := range []struct {
		name           string
		scheme         stripe.Scheme
		width, copies  int
		down, absorbed []int
		ok             bool
	}{
		{"raid0", stripe.Raid0, 4, 1, []int{0}, nil, false},
		{"replica", stripe.Replica, 2, 2, []int{0}, nil, true},
		{"replica-both-copies", stripe.Replica, 2, 2, []int{0, 2}, nil, false},
		{"parity", stripe.Parity, 3, 0, []int{0}, nil, true},
		{"parity-two-members", stripe.Parity, 3, 0, []int{0, 3}, nil, false},
		{"replica-absorbed", stripe.Replica, 2, 2, nil, []int{0}, true},
		{"replica-absorbed-other-dead", stripe.Replica, 2, 2, []int{2}, []int{0}, false},
		{"parity-absorbed-other-dead", stripe.Parity, 3, 0, []int{1}, []int{3}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, lw := engineCluster(4)
			c := cl.NewClient(lw, 0)
			c.SetRetry(redundRetry, 15)
			cl.Spawn("app", func(p *sim.Proc) {
				caps := appSetup(t, p, c)
				eng := stripe.NewEngine(c, caps, 0)
				l := makeRedundant(t, p, c, caps, tc.scheme, tc.width, tc.copies, 8<<10)
				for _, i := range tc.down {
					lw.Servers[i].Crash()
				}
				var absorbed []storage.Target
				for _, i := range tc.absorbed {
					absorbed = append(absorbed, c.Server(i))
				}
				err := eng.Sync(p, l, absorbed)
				switch {
				case tc.ok && err != nil:
					t.Fatalf("sync with servers %v down: %v, want nil", tc.down, err)
				case !tc.ok && (!errors.Is(err, stripe.ErrUnrecoverable) || !errors.Is(err, portals.ErrRPCTimeout)):
					t.Fatalf("sync with servers %v down = %v, want a timeout and ErrUnrecoverable", tc.down, err)
				}
			})
			if err := cl.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Parity layouts: full-stripe and sub-stripe (read-modify-write) updates
// keep parity consistent, proven by reconstructing a crashed column.
func TestParityRMWAndDegradedRead(t *testing.T) {
	cl, lw := engineCluster(4)
	c := cl.NewClient(lw, 0)
	c.SetRetry(redundRetry, 7)
	cl.Spawn("app", func(p *sim.Proc) {
		caps := appSetup(t, p, c)
		eng := stripe.NewEngine(c, caps, 0)
		l := makeRedundant(t, p, c, caps, stripe.Parity, 3, 0, 8<<10)
		data := make([]byte, 100_000)
		rng := rand.New(rand.NewSource(23))
		rng.Read(data)
		if _, err := eng.WriteAt(p, l, 0, netsim.BytesPayload(data)); err != nil {
			t.Fatalf("write: %v", err)
		}
		// Sub-stripe overwrite at an unaligned offset: exercises the
		// read-modify-write parity path.
		patch := make([]byte, 10_000)
		rng.Read(patch)
		copy(data[30_001:], patch)
		if _, err := eng.WriteAt(p, l, 30_001, netsim.BytesPayload(patch)); err != nil {
			t.Fatalf("rmw write: %v", err)
		}
		got, err := eng.ReadAt(p, l, 0, int64(len(data)))
		if err != nil || !bytes.Equal(got.Data, data) {
			t.Fatalf("healthy read mismatch: %v", err)
		}
		lw.Servers[1].Crash() // data column 1
		got, err = eng.ReadAt(p, l, 0, int64(len(data)))
		if err != nil || !bytes.Equal(got.Data, data) {
			t.Fatalf("degraded read mismatch: %v", err)
		}
		if cl.Metrics().Snapshot().Sum("stripe.*.reconstructed_bytes") == 0 {
			t.Error("reconstruction instrument did not move")
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// A dead data column during a sub-stripe write: its old extent reconstructs
// from the survivors, the parity delta carries its new content, and a
// degraded read of that column returns the NEW bytes.
func TestParityDegradedWriteDeadColumn(t *testing.T) {
	cl, lw := engineCluster(4)
	c := cl.NewClient(lw, 0)
	c.SetRetry(redundRetry, 8)
	cl.Spawn("app", func(p *sim.Proc) {
		caps := appSetup(t, p, c)
		eng := stripe.NewEngine(c, caps, 0)
		l := makeRedundant(t, p, c, caps, stripe.Parity, 3, 0, 8<<10)
		data := make([]byte, 96_000)
		rng := rand.New(rand.NewSource(24))
		rng.Read(data)
		if _, err := eng.WriteAt(p, l, 0, netsim.BytesPayload(data)); err != nil {
			t.Fatalf("write: %v", err)
		}
		lw.Servers[0].Crash() // data column 0
		patch := make([]byte, 5_000)
		rng.Read(patch)
		copy(data[2_000:], patch) // lands inside column 0's first unit
		n, failed, err := eng.WriteAtTolerant(p, l, 2_000, netsim.BytesPayload(patch))
		if err != nil || n != int64(len(patch)) {
			t.Fatalf("degraded rmw: n=%d err=%v", n, err)
		}
		if len(failed) != 1 || failed[0] != c.Server(0) {
			t.Fatalf("failed targets = %v, want [server 0]", failed)
		}
		got, err := eng.ReadAt(p, l, 0, int64(len(data)))
		if err != nil || !bytes.Equal(got.Data, data) {
			t.Fatalf("degraded read after degraded write mismatch: %v", err)
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// A dead parity server: data writes land plain, the stale parity target is
// reported for fencing, and plain reads still work.
func TestParityDegradedWriteDeadParity(t *testing.T) {
	cl, lw := engineCluster(4)
	c := cl.NewClient(lw, 0)
	c.SetRetry(redundRetry, 9)
	cl.Spawn("app", func(p *sim.Proc) {
		caps := appSetup(t, p, c)
		eng := stripe.NewEngine(c, caps, 0)
		l := makeRedundant(t, p, c, caps, stripe.Parity, 3, 0, 8<<10)
		data := make([]byte, 96_000)
		rng := rand.New(rand.NewSource(25))
		rng.Read(data)
		if _, err := eng.WriteAt(p, l, 0, netsim.BytesPayload(data)); err != nil {
			t.Fatalf("write: %v", err)
		}
		lw.Servers[3].Crash() // the parity object's server
		patch := make([]byte, 5_000)
		rng.Read(patch)
		copy(data[50_000:], patch)
		n, failed, err := eng.WriteAtTolerant(p, l, 50_000, netsim.BytesPayload(patch))
		if err != nil || n != int64(len(patch)) {
			t.Fatalf("degraded rmw: n=%d err=%v", n, err)
		}
		if len(failed) != 1 || failed[0] != c.Server(3) {
			t.Fatalf("failed targets = %v, want [server 3]", failed)
		}
		got, err := eng.ReadAt(p, l, 0, int64(len(data)))
		if err != nil || !bytes.Equal(got.Data, data) {
			t.Fatalf("read after degraded write mismatch: %v", err)
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// Online rebuild, replica scheme: the dead server's objects re-copy onto a
// spare via third-party transfer; the patched layout reads clean without
// touching the dead server.
func TestRebuildReplica(t *testing.T) {
	cl, lw := engineCluster(4)
	c := cl.NewClient(lw, 0)
	c.SetRetry(redundRetry, 10)
	cl.Spawn("app", func(p *sim.Proc) {
		caps := appSetup(t, p, c)
		eng := stripe.NewEngine(c, caps, 0)
		l := makeRedundant(t, p, c, caps, stripe.Replica, 2, 2, 8<<10)
		data := make([]byte, 120_000)
		l.Size = int64(len(data)) // the owner's job: rebuild sizes objects from it
		rand.New(rand.NewSource(26)).Read(data)
		if _, err := eng.WriteAt(p, l, 0, netsim.BytesPayload(data)); err != nil {
			t.Fatalf("write: %v", err)
		}
		dead := c.Server(1) // copy 0 of column 1
		lw.Servers[1].Crash()
		rb := stripe.NewRebuilder(eng)
		nl, err := rb.Rebuild(p, l, dead, c.Servers())
		if err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		for i, o := range nl.Objs {
			if storage.TargetOf(o) == dead {
				t.Fatalf("patched layout still references dead server at %d", i)
			}
		}
		got, err := eng.ReadAt(p, nl, 0, int64(len(data)))
		if err != nil || !bytes.Equal(got.Data, data) {
			t.Fatalf("post-rebuild read mismatch: %v", err)
		}
		snap := cl.Metrics().Snapshot()
		if snap.Sum("rebuild.*.objects_done") != 1 || snap.Sum("rebuild.*.objects_total") != 1 {
			t.Errorf("rebuild instruments: done=%v total=%v, want 1/1",
				snap.Sum("rebuild.*.objects_done"), snap.Sum("rebuild.*.objects_total"))
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// Online rebuild, parity scheme: a dead data column XOR-reconstructs onto a
// spare chunk by chunk; a dead parity object recomputes from the columns.
func TestRebuildParity(t *testing.T) {
	for _, victim := range []int{1, 3} { // data column 1, then the parity object
		cl, lw := engineCluster(4)
		c := cl.NewClient(lw, 0)
		c.SetRetry(redundRetry, 11)
		cl.Spawn("app", func(p *sim.Proc) {
			caps := appSetup(t, p, c)
			eng := stripe.NewEngine(c, caps, 0)
			l := makeRedundant(t, p, c, caps, stripe.Parity, 3, 0, 8<<10)
			data := make([]byte, 7<<20+12345) // 2.3 MB a column: several 1 MB reconstruction rounds
			l.Size = int64(len(data))
			rand.New(rand.NewSource(27)).Read(data)
			if _, err := eng.WriteAt(p, l, 0, netsim.BytesPayload(data)); err != nil {
				t.Fatalf("write: %v", err)
			}
			dead := c.Server(victim)
			lw.Servers[victim].Crash()
			nl, err := stripe.NewRebuilder(eng).Rebuild(p, l, dead, c.Servers())
			if err != nil {
				t.Fatalf("victim %d rebuild: %v", victim, err)
			}
			// readAll reads the file back in pieces redundRetry's 25 ms
			// deadline lets through.
			readAll := func() ([]byte, error) {
				var out []byte
				for off := int64(0); off < l.Size; off += 1 << 20 {
					got, err := eng.ReadAt(p, nl, off, min(1<<20, l.Size-off))
					if err != nil {
						return nil, err
					}
					out = append(out, got.Data...)
				}
				return out, nil
			}
			got, err := readAll()
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("victim %d post-rebuild read mismatch: %v", victim, err)
			}
			// The rebuilt group must again survive a (different) single
			// loss: crash a survivor and read degraded.
			next := (victim + 2) % 4
			lw.Servers[next].Crash()
			got, err = readAll()
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("victim %d degraded read after rebuild mismatch: %v", victim, err)
			}
		})
		if err := cl.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// A rebuild attempt that fails midway must not leak its replacement
// objects: the ones already created are removed before the error returns,
// so repeated failed attempts don't accumulate orphans on the spares.
func TestRebuildFailureRemovesOrphans(t *testing.T) {
	cl, lw := engineCluster(4)
	c := cl.NewClient(lw, 0)
	c.SetRetry(redundRetry, 13)
	cl.Spawn("app", func(p *sim.Proc) {
		caps := appSetup(t, p, c)
		eng := stripe.NewEngine(c, caps, 0)
		// Hand-placed replica 2×2 with BOTH copies of column 1 on the
		// to-be-dead server 1: column 1 has no surviving copy, so the
		// rebuild fails after creating a replacement for its first slot.
		l := stripe.Layout{Unit: 8 << 10, Scheme: stripe.Replica, Copies: 2, Size: 64_000}
		for _, srv := range []int{2, 1, 3, 1} { // col0c0, col1c0, col0c1, col1c1
			ref, err := c.CreateObject(p, c.Server(srv), caps)
			if err != nil {
				t.Fatalf("create: %v", err)
			}
			l.Objs = append(l.Objs, ref)
		}
		if _, err := eng.WriteAt(p, l, 0, netsim.SyntheticPayload(l.Size)); err != nil {
			t.Fatalf("write: %v", err)
		}
		before := 0
		for _, srv := range lw.Servers {
			before += srv.Device().NumObjects()
		}
		dead := c.Server(1)
		lw.Servers[1].Crash()
		if _, err := stripe.NewRebuilder(eng).Rebuild(p, l, dead, c.Servers()); !errors.Is(err, stripe.ErrUnrecoverable) {
			t.Fatalf("rebuild = %v, want ErrUnrecoverable", err)
		}
		after := 0
		for _, srv := range lw.Servers {
			after += srv.Device().NumObjects()
		}
		if after != before {
			t.Fatalf("failed rebuild leaked %d objects", after-before)
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// RAID-0 has nothing to rebuild from.
func TestRebuildRaid0Unrecoverable(t *testing.T) {
	cl, lw := engineCluster(2)
	c := cl.NewClient(lw, 0)
	c.SetRetry(redundRetry, 12)
	cl.Spawn("app", func(p *sim.Proc) {
		caps := appSetup(t, p, c)
		eng := stripe.NewEngine(c, caps, 0)
		l := makeLayout(t, p, c, caps, 8<<10)
		if _, err := eng.WriteAt(p, l, 0, netsim.SyntheticPayload(64_000)); err != nil {
			t.Fatalf("write: %v", err)
		}
		dead := c.Server(0)
		lw.Servers[0].Crash()
		if _, err := stripe.NewRebuilder(eng).Rebuild(p, l, dead, c.Servers()); !errors.Is(err, stripe.ErrUnrecoverable) {
			t.Fatalf("raid0 rebuild = %v, want ErrUnrecoverable", err)
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}
