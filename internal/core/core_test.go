package core_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"lwfs/internal/authz"
	"lwfs/internal/cluster"
	"lwfs/internal/core"
	"lwfs/internal/naming"
	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/testrig"
	"lwfs/internal/txn"
)

// smallCluster builds a fast 4-compute-node, 4-server system.
func smallCluster() (*cluster.Cluster, *cluster.LWFS) {
	spec := cluster.DevCluster()
	spec.ComputeNodes = 4
	spec = spec.WithServers(4)
	cl := cluster.New(spec)
	cl.RegisterUser("app", "s3cret")
	l := cl.DeployLWFS()
	return cl, l
}

func run(t *testing.T, cl *cluster.Cluster) {
	t.Helper()
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

const allOpsLen = 5

func TestEndToEndCheckpointFlow(t *testing.T) {
	cl, l := smallCluster()
	c := cl.NewClient(l, 0)
	cl.K.Spawn("app", func(p *sim.Proc) {
		if err := c.Login(p, "app", "s3cret"); err != nil {
			t.Fatalf("login: %v", err)
		}
		cid, err := c.CreateContainer(p)
		if err != nil {
			t.Fatalf("container: %v", err)
		}
		caps, err := c.GetCaps(p, cid, authz.AllOps...)
		if err != nil {
			t.Fatalf("getcaps: %v", err)
		}
		if len(caps.Caps) != allOpsLen {
			t.Fatalf("caps = %v", caps)
		}

		// The Figure 8 pattern: transaction around object creates + a name.
		tx := c.BeginTxn()
		var refs []storage.ObjRef
		for i := 0; i < 4; i++ {
			ref, err := c.CreateObjectTxn(p, c.Server(i), caps, tx)
			if err != nil {
				t.Fatalf("create obj %d: %v", i, err)
			}
			refs = append(refs, ref)
			data := []byte(fmt.Sprintf("state-of-rank-%d", i))
			if _, err := c.Write(p, ref, caps, 0, netsim.BytesPayload(data)); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		// Metadata object describing the dataset.
		mdRef, err := c.CreateObjectTxn(p, c.Server(0), caps, tx)
		if err != nil {
			t.Fatalf("md obj: %v", err)
		}
		md := ""
		for _, r := range refs {
			md += fmt.Sprintf("%d:%d:%d\n", r.Node, r.Port, r.ID)
		}
		if _, err := c.Write(p, mdRef, caps, 0, netsim.BytesPayload([]byte(md))); err != nil {
			t.Fatalf("md write: %v", err)
		}
		if err := c.CreateName(p, "/ckpt-0001", mdRef, tx); err != nil {
			t.Fatalf("name: %v", err)
		}
		if err := tx.Commit(p); err != nil {
			t.Fatalf("commit: %v", err)
		}

		// "Restart": resolve the name, read metadata, read a member object.
		e, err := c.Lookup(p, "/ckpt-0001")
		if err != nil {
			t.Fatalf("lookup: %v", err)
		}
		got, err := c.Read(p, e.Refs[0], caps, 0, int64(len(md)))
		if err != nil || string(got.Data) != md {
			t.Fatalf("md read: %q %v", got.Data, err)
		}
		r0, err := c.Read(p, refs[2], caps, 0, 64)
		if err != nil || string(r0.Data) != "state-of-rank-2" {
			t.Fatalf("obj read: %q %v", r0.Data, err)
		}
	})
	run(t, cl)
}

func TestAbortUndoesObjectsAndName(t *testing.T) {
	cl, l := smallCluster()
	c := cl.NewClient(l, 0)
	cl.K.Spawn("app", func(p *sim.Proc) {
		c.Login(p, "app", "s3cret")
		cid, _ := c.CreateContainer(p)
		caps, _ := c.GetCaps(p, cid, authz.AllOps...)
		tx := c.BeginTxn()
		ref, err := c.CreateObjectTxn(p, c.Server(1), caps, tx)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if err := c.CreateName(p, "/doomed", ref, tx); err != nil {
			t.Fatalf("name: %v", err)
		}
		if err := tx.Abort(p); err != nil {
			t.Fatalf("abort: %v", err)
		}
		if _, err := c.Stat(p, ref, caps); !errors.Is(err, osd.ErrNoObject) {
			t.Errorf("object survived abort: %v", err)
		}
		if _, err := c.Lookup(p, "/doomed"); !errors.Is(err, naming.ErrNotFound) {
			t.Errorf("name survived abort: %v", err)
		}
	})
	run(t, cl)
}

func TestFailedPrepareRollsBackWholeCheckpoint(t *testing.T) {
	cl, l := smallCluster()
	l.Servers[2].Participant().FailPrepare = func(id txn.ID) bool { return true }
	c := cl.NewClient(l, 0)
	cl.K.Spawn("app", func(p *sim.Proc) {
		c.Login(p, "app", "s3cret")
		cid, _ := c.CreateContainer(p)
		caps, _ := c.GetCaps(p, cid, authz.AllOps...)
		tx := c.BeginTxn()
		var refs []storage.ObjRef
		for i := 0; i < 4; i++ {
			ref, err := c.CreateObjectTxn(p, c.Server(i), caps, tx)
			if err != nil {
				t.Fatalf("create %d: %v", i, err)
			}
			refs = append(refs, ref)
		}
		if err := tx.Commit(p); !errors.Is(err, txn.ErrAborted) {
			t.Fatalf("commit with bad participant: %v", err)
		}
		// Every object on every server is gone — atomicity across servers.
		for i, ref := range refs {
			if _, err := c.Stat(p, ref, caps); !errors.Is(err, osd.ErrNoObject) {
				t.Errorf("object %d survived: %v", i, err)
			}
		}
	})
	run(t, cl)
}

func TestScatterCapsBinomialTree(t *testing.T) {
	cl, l := smallCluster()
	const n = 4
	clients := make([]*core.Client, n)
	for i := range clients {
		clients[i] = cl.NewClient(l, i)
	}
	got := make([]core.CapSet, n)
	// Rank 0 logs in, creates the container, scatters caps+cred.
	cl.K.Spawn("rank0", func(p *sim.Proc) {
		c := clients[0]
		c.Login(p, "app", "s3cret")
		cid, _ := c.CreateContainer(p)
		caps, _ := c.GetCaps(p, cid, authz.OpCreate, authz.OpWrite)
		var peers []core.ProcAddr
		for i := 1; i < n; i++ {
			peers = append(peers, clients[i].Addr())
		}
		c.ScatterCaps(p, caps, peers)
		got[0] = caps
	})
	for i := 1; i < n; i++ {
		i := i
		cl.K.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			caps, err := clients[i].WaitCaps(p)
			if err != nil {
				t.Errorf("rank %d: %v", i, err)
				return
			}
			got[i] = caps
		})
	}
	run(t, cl)
	for i := 1; i < n; i++ {
		if got[i].Container != got[0].Container || len(got[i].Caps) != 2 {
			t.Fatalf("rank %d caps = %+v", i, got[i])
		}
		// The transferred credential lets peers act: it must be non-zero.
		if clients[i].Credential().Zero() {
			t.Fatalf("rank %d has no credential after scatter", i)
		}
	}
	// Scatter is O(n) messages along a tree, not a hot-spot broadcast:
	// rank 0's node sent at most ceil(log2(n)) scatter messages.
	sent := testrig.Metric(cl.Metrics(), "net."+clients[0].Endpoint().NodeName()+".msgs_sent")
	// rank0 also did login/container/caps RPCs (3) and two Puts per RPC is
	// not possible — each RPC is 1 message out. Allow slack but catch a
	// linear broadcast (which would be n-1 = 3 scatter sends + 3 RPCs).
	if sent > 6 {
		t.Fatalf("rank0 sent %d messages; scatter not logarithmic?", sent)
	}
}

func TestNotLoggedInErrors(t *testing.T) {
	cl, l := smallCluster()
	c := cl.NewClient(l, 0)
	cl.K.Spawn("app", func(p *sim.Proc) {
		if _, err := c.CreateContainer(p); !errors.Is(err, core.ErrNotLoggedIn) {
			t.Errorf("container: %v", err)
		}
		if _, err := c.GetCaps(p, 1, authz.OpRead); !errors.Is(err, core.ErrNotLoggedIn) {
			t.Errorf("getcaps: %v", err)
		}
		if err := c.Mkdir(p, "/x"); !errors.Is(err, core.ErrNotLoggedIn) {
			t.Errorf("mkdir: %v", err)
		}
	})
	run(t, cl)
}

func TestLogoutRevokesCredential(t *testing.T) {
	cl, l := smallCluster()
	c := cl.NewClient(l, 0)
	cl.K.Spawn("app", func(p *sim.Proc) {
		c.Login(p, "app", "s3cret")
		cred := c.Credential()
		if err := c.Logout(p); err != nil {
			t.Fatalf("logout: %v", err)
		}
		// Reusing the old credential fails.
		c.SetCredential(cred)
		if _, err := c.CreateContainer(p); err == nil {
			t.Error("revoked credential still worked")
		}
	})
	run(t, cl)
}

func TestCoreLocks(t *testing.T) {
	cl, l := smallCluster()
	a := cl.NewClient(l, 0)
	b := cl.NewClient(l, 1)
	var order []string
	cl.K.Spawn("a", func(p *sim.Proc) {
		a.Locks().Lock(p, "region:0", txn.Exclusive)
		order = append(order, "a-in")
		p.Sleep(time.Millisecond)
		order = append(order, "a-out")
		a.Locks().Unlock(p, "region:0")
	})
	cl.K.Spawn("b", func(p *sim.Proc) {
		p.Sleep(100 * time.Microsecond)
		b.Locks().Lock(p, "region:0", txn.Exclusive)
		order = append(order, "b-in")
		b.Locks().Unlock(p, "region:0")
	})
	run(t, cl)
	want := "a-in;a-out;b-in;"
	gotS := ""
	for _, o := range order {
		gotS += o + ";"
	}
	if gotS != want {
		t.Fatalf("order = %v", gotS)
	}
}

func TestAttrsAndListThroughCore(t *testing.T) {
	cl, l := smallCluster()
	c := cl.NewClient(l, 0)
	cl.K.Spawn("app", func(p *sim.Proc) {
		c.Login(p, "app", "s3cret")
		cid, _ := c.CreateContainer(p)
		caps, _ := c.GetCaps(p, cid, authz.AllOps...)
		ref, err := c.CreateObject(p, c.Server(0), caps)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if err := c.SetAttr(p, ref, caps, "rank", "7"); err != nil {
			t.Fatalf("setattr: %v", err)
		}
		v, err := c.GetAttr(p, ref, caps, "rank")
		if err != nil || v != "7" {
			t.Fatalf("getattr: %q %v", v, err)
		}
		ids, err := c.List(p, c.Server(0), caps)
		if err != nil || len(ids) != 1 || ids[0] != ref.ID {
			t.Fatalf("list: %v %v", ids, err)
		}
		if err := c.Sync(p, c.Server(0), caps); err != nil {
			t.Fatalf("sync: %v", err)
		}
		if err := c.Remove(p, ref, caps); err != nil {
			t.Fatalf("remove: %v", err)
		}
	})
	run(t, cl)
}

func TestTable1Ratios(t *testing.T) {
	want := map[string]int{
		"SNL Intel Paragon": 58,
		"ASCI Red":          62,
		"Cray Red Storm":    41,
		"BlueGene/L":        64,
	}
	for _, m := range cluster.Table1 {
		if got := m.Ratio(); got != want[m.Name] {
			t.Errorf("%s ratio = %d, want %d", m.Name, got, want[m.Name])
		}
	}
}
