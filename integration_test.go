package lwfs_test

import (
	"bytes"
	"testing"

	"lwfs"
)

// TestFacadeEndToEnd drives the whole public surface: build, deploy,
// authenticate, authorize, store, name, transact, lock — through package
// lwfs only.
func TestFacadeEndToEnd(t *testing.T) {
	spec := lwfs.DevCluster()
	spec.ComputeNodes = 4
	spec = spec.WithServers(4)
	cl := lwfs.NewCluster(spec)
	cl.RegisterUser("u", "pw")
	sys := cl.DeployLWFS()
	c := cl.NewClient(sys, 0)

	cl.Spawn("app", func(p *lwfs.Proc) {
		if err := c.Login(p, "u", "pw"); err != nil {
			t.Fatalf("login: %v", err)
		}
		cid, err := c.CreateContainer(p)
		if err != nil {
			t.Fatalf("container: %v", err)
		}
		caps, err := c.GetCaps(p, cid, lwfs.AllOps...)
		if err != nil {
			t.Fatalf("caps: %v", err)
		}
		tx := c.BeginTxn()
		ref, err := c.CreateObjectTxn(p, c.Server(2), caps, tx)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		data := []byte("facade round trip")
		if _, err := c.Write(p, ref, caps, 0, lwfs.Bytes(data)); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := c.Mkdir(p, "/it"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := c.CreateName(p, "/it/obj", ref, tx); err != nil {
			t.Fatalf("name: %v", err)
		}
		if err := tx.Commit(p); err != nil {
			t.Fatalf("commit: %v", err)
		}
		e, err := c.Lookup(p, "/it/obj")
		if err != nil {
			t.Fatalf("lookup: %v", err)
		}
		got, err := c.Read(p, e.Refs[0], caps, 0, int64(len(data)))
		if err != nil || !bytes.Equal(got.Data, data) {
			t.Fatalf("read: %q %v", got.Data, err)
		}
		// Lock service through the facade.
		if _, err := c.Locks().Lock(p, "it", lwfs.Exclusive); err != nil {
			t.Fatalf("lock: %v", err)
		}
		if err := c.Locks().Unlock(p, "it"); err != nil {
			t.Fatalf("unlock: %v", err)
		}
		// NewObjRef round-trips a serialized reference.
		ref1 := e.Refs[0]
		ref2 := lwfs.NewObjRef(int(ref1.Node), int(ref1.Port), uint64(ref1.ID))
		if ref2 != ref1 {
			t.Fatalf("NewObjRef: %+v != %+v", ref2, ref1)
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointFacade runs the three §4 implementations through the
// facade wrappers and checks the Figure 9 ordering.
func TestCheckpointFacade(t *testing.T) {
	spec := lwfs.DevCluster().WithServers(4)
	spec.ComputeNodes = 8
	cfg := lwfs.CheckpointConfig{Procs: 8, BytesPerProc: 32 * lwfs.MB, Seed: 9}
	l, err := lwfs.CheckpointLWFS(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := lwfs.CheckpointFilePerProcess(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := lwfs.CheckpointSharedFile(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !(l.ThroughputMBs() > s.ThroughputMBs() && f.ThroughputMBs() > s.ThroughputMBs()) {
		t.Fatalf("ordering broken: lwfs=%.0f fpp=%.0f shared=%.0f",
			l.ThroughputMBs(), f.ThroughputMBs(), s.ThroughputMBs())
	}
}

// TestManyProcsPerNode regression: more client processes than compute
// nodes (the paper's 64 procs on 31 nodes) must work — co-located clients
// share an endpoint and must not collide on tokens, match bits, or
// scatter addresses.
func TestManyProcsPerNode(t *testing.T) {
	spec := lwfs.DevCluster().WithServers(4)
	spec.ComputeNodes = 3 // 12 procs on 3 nodes: 4 clients per endpoint
	res, err := lwfs.CheckpointLWFS(spec, lwfs.CheckpointConfig{
		Procs: 12, BytesPerProc: 8 * lwfs.MB, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reported != 12 {
		t.Fatalf("only %d procs reported", res.Reported)
	}
}

// TestRedStormSpecSmall boots a scaled-down Red Storm parameterization to
// guard the Table 2 preset.
func TestRedStormSpecSmall(t *testing.T) {
	spec := lwfs.RedStorm()
	spec.ComputeNodes = 4
	spec.StorageNodes = 2
	res, err := lwfs.CheckpointLWFS(spec, lwfs.CheckpointConfig{
		Procs: 4, BytesPerProc: 64 * lwfs.MB, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two 400 MB/s I/O nodes: aggregate should approach 800 MB/s.
	if tput := res.ThroughputMBs(); tput < 600 || tput > 820 {
		t.Fatalf("red storm throughput = %.0f MB/s, want ~760", tput)
	}
}

// TestDifferentServerCounts sweeps WithServers through the Figure 9 domain.
func TestDifferentServerCounts(t *testing.T) {
	var prev float64
	for _, servers := range []int{2, 4, 8, 16} {
		spec := lwfs.DevCluster().WithServers(servers)
		res, err := lwfs.CheckpointLWFS(spec, lwfs.CheckpointConfig{
			Procs: 16, BytesPerProc: 16 * lwfs.MB, Seed: 3,
		})
		if err != nil {
			t.Fatalf("servers=%d: %v", servers, err)
		}
		tput := res.ThroughputMBs()
		if tput < prev {
			t.Fatalf("throughput fell adding servers: %d servers -> %.0f (prev %.0f)", servers, tput, prev)
		}
		prev = tput
	}
}

// Example-style smoke test: the doc.go snippet compiles and runs.
func TestDocSnippet(t *testing.T) {
	cl := lwfs.NewCluster(func() lwfs.Spec {
		s := lwfs.DevCluster()
		s.ComputeNodes = 1
		return s.WithServers(2)
	}())
	cl.RegisterUser("app", "secret")
	sys := cl.DeployLWFS()
	client := cl.NewClient(sys, 0)
	cl.Spawn("app", func(p *lwfs.Proc) {
		if err := client.Login(p, "app", "secret"); err != nil {
			t.Fatal(err)
		}
		cid, _ := client.CreateContainer(p)
		caps, _ := client.GetCaps(p, cid, lwfs.OpCreate, lwfs.OpWrite, lwfs.OpRead)
		ref, err := client.CreateObject(p, client.Server(0), caps)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.Write(p, ref, caps, 0, lwfs.Bytes([]byte("hello"))); err != nil {
			t.Fatal(err)
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// Throughput sanity across payload kinds: synthetic and real-byte writes
// of the same size cost identical virtual time.
func TestSyntheticAndRealTimingsAgree(t *testing.T) {
	elapsed := func(real bool) (d lwfs.Time) {
		spec := lwfs.DevCluster().WithServers(2)
		spec.ComputeNodes = 1
		cl := lwfs.NewCluster(spec)
		cl.RegisterUser("u", "pw")
		sys := cl.DeployLWFS()
		c := cl.NewClient(sys, 0)
		cl.Spawn("w", func(p *lwfs.Proc) {
			c.Login(p, "u", "pw")
			cid, _ := c.CreateContainer(p)
			caps, _ := c.GetCaps(p, cid, lwfs.AllOps...)
			ref, _ := c.CreateObject(p, c.Server(0), caps)
			payload := lwfs.Synthetic(4 * lwfs.MB)
			if real {
				payload = lwfs.Bytes(make([]byte, 4*lwfs.MB))
			}
			start := p.Now()
			if _, err := c.Write(p, ref, caps, 0, payload); err != nil {
				t.Errorf("write: %v", err)
			}
			d = lwfs.Time(p.Now().Sub(start))
		})
		if err := cl.Run(); err != nil {
			t.Fatal(err)
		}
		return d
	}
	if a, b := elapsed(false), elapsed(true); a != b {
		t.Fatalf("synthetic %v != real %v", a, b)
	}
}
