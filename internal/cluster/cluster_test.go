package cluster_test

import (
	"runtime"
	"testing"
	"time"

	"lwfs/internal/authz"
	"lwfs/internal/cluster"
	"lwfs/internal/netsim"
	"lwfs/internal/sim"
)

func TestDevClusterShape(t *testing.T) {
	spec := cluster.DevCluster()
	if spec.ComputeNodes != 31 || spec.StorageNodes != 8 || spec.ServersPerNode != 2 {
		t.Fatalf("dev cluster: %+v", spec)
	}
	cl := cluster.New(spec)
	// 1 admin + 8 storage + 31 compute = 40 nodes, matching §4.
	if got := len(cl.Net.Nodes()); got != 40 {
		t.Fatalf("nodes = %d, want 40", got)
	}
	l := cl.DeployLWFS()
	if len(l.Servers) != 16 {
		t.Fatalf("servers = %d, want 16", len(l.Servers))
	}
	if len(l.Sys.Storage) != 16 {
		t.Fatalf("targets = %d", len(l.Sys.Storage))
	}
}

func TestWithServers(t *testing.T) {
	for _, tc := range []struct {
		total          int
		nodes, perNode int
	}{
		{2, 1, 2},
		{4, 2, 2},
		{8, 4, 2},
		{16, 8, 2},
		{1, 1, 1},
	} {
		spec := cluster.DevCluster().WithServers(tc.total)
		if spec.StorageNodes != tc.nodes || spec.ServersPerNode != tc.perNode {
			t.Errorf("WithServers(%d) = %d nodes x %d, want %d x %d",
				tc.total, spec.StorageNodes, spec.ServersPerNode, tc.nodes, tc.perNode)
		}
	}
}

func TestWithServersRejectsNonDivisible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-divisible server count")
		}
	}()
	cluster.DevCluster().WithServers(3)
}

func TestCoLocatedServersShareNode(t *testing.T) {
	cl := cluster.New(cluster.DevCluster().WithServers(4))
	l := cl.DeployLWFS()
	// 2 nodes x 2 servers: server pairs share a node with distinct portals.
	if l.Servers[0].Node() != l.Servers[1].Node() {
		t.Fatal("first two servers should share a node")
	}
	if l.Servers[0].RPCPort() == l.Servers[1].RPCPort() {
		t.Fatal("co-located servers share a portal")
	}
	if l.Servers[0].Node() == l.Servers[2].Node() {
		t.Fatal("servers 0 and 2 should be on different nodes")
	}
}

func TestDeployPFSSameHardwareBudget(t *testing.T) {
	cl := cluster.New(cluster.DevCluster().WithServers(8))
	f := cl.DeployPFS()
	if len(f.OSTs) != 8 {
		t.Fatalf("OSTs = %d", len(f.OSTs))
	}
}

func TestBothDeploymentsCoexist(t *testing.T) {
	// Deploying LWFS and the PFS on one cluster must not collide (distinct
	// portals and devices) — used by side-by-side demos.
	cl := cluster.New(cluster.DevCluster().WithServers(2))
	cl.RegisterUser("u", "pw")
	l := cl.DeployLWFS()
	f := cl.DeployPFS()
	c := cl.NewClient(l, 0)
	pc := cl.NewPFSClient(f, 1)
	cl.Spawn("lwfs-user", func(p *sim.Proc) {
		if err := c.Login(p, "u", "pw"); err != nil {
			t.Errorf("login: %v", err)
			return
		}
		cid, _ := c.CreateContainer(p)
		caps, err := c.GetCaps(p, cid, authz.OpCreate)
		if err != nil {
			t.Errorf("caps: %v", err)
			return
		}
		if _, err := c.CreateObject(p, c.Server(0), caps); err != nil {
			t.Errorf("create: %v", err)
		}
	})
	cl.Spawn("pfs-user", func(p *sim.Proc) {
		if _, err := pc.Create(p, "/x", 0); err != nil {
			t.Errorf("pfs create: %v", err)
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRedStormPreset(t *testing.T) {
	spec := cluster.RedStorm()
	if spec.ComputeNodes != 10368 || spec.StorageNodes != 256 {
		t.Fatalf("red storm: %+v", spec)
	}
	if spec.Disk.BandwidthBps != 400<<20 {
		t.Fatalf("raid bw = %v", spec.Disk.BandwidthBps)
	}
}

func TestMachineRatios(t *testing.T) {
	if len(cluster.Table1) != 4 {
		t.Fatalf("table1 rows = %d", len(cluster.Table1))
	}
	for _, m := range cluster.Table1 {
		if m.Ratio() <= 0 || m.ComputeNodes < m.IONodes {
			t.Errorf("%s: implausible row %+v", m.Name, m)
		}
	}
}

// useCluster builds a dev cluster, writes 1 MiB of real bytes to an object on
// each of its 16 storage servers and runs the simulation dry: every service
// that takes part has started workers, and the devices hold 16 MiB.
func useCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	cl := cluster.New(cluster.DevCluster())
	cl.RegisterUser("u", "pw")
	l := cl.DeployLWFS()
	c := cl.NewClient(l, 0)
	cl.Spawn("writer", func(p *sim.Proc) {
		if err := c.Login(p, "u", "pw"); err != nil {
			t.Errorf("login: %v", err)
			return
		}
		cid, _ := c.CreateContainer(p)
		caps, err := c.GetCaps(p, cid, authz.OpCreate, authz.OpWrite)
		if err != nil {
			t.Errorf("caps: %v", err)
			return
		}
		for i := range c.Servers() {
			ref, err := c.CreateObject(p, c.Server(i), caps)
			if err != nil {
				t.Errorf("create on server %d: %v", i, err)
				return
			}
			if _, err := c.Write(p, ref, caps, 0, netsim.BytesPayload(make([]byte, 1<<20))); err != nil {
				t.Errorf("write to server %d: %v", i, err)
				return
			}
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	return cl
}

func heapAfterGC() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// The lifecycle guard: a closed cluster owns no goroutine and keeps nothing
// alive, so N clusters built, run and closed in one process cost what one
// resident cluster costs — the property sweeps, seeds-per-process testers and
// the benchmark's repetitions rely on.
func TestClosedClustersLeaveNothingBehind(t *testing.T) {
	goroutines, heap0 := runtime.NumGoroutine(), heapAfterGC()

	resident := useCluster(t)
	if n := runtime.NumGoroutine(); n <= goroutines {
		t.Fatalf("a used cluster runs %d goroutines beside the test's %d: nothing to retire", n-goroutines, goroutines)
	}
	one := heapAfterGC() - heap0
	if one < 16<<20 {
		t.Fatalf("one resident cluster holds %d bytes, want at least the 16 MiB written", one)
	}
	resident.Close()
	resident.Close() // closing twice is closing once
	if err := resident.Run(); err == nil {
		t.Error("Run on a closed cluster succeeded")
	}

	for i := 0; i < 20; i++ {
		useCluster(t).Close()
	}
	after := heapAfterGC() - heap0
	if after > one*3/2 {
		t.Errorf("heap after 20 closed clusters is %d bytes over the start, one resident cluster is %d: want within 1.5x", after, one)
	}
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > goroutines; i++ { // acknowledged goroutines finish dying
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > goroutines {
		t.Errorf("%d goroutines after 21 closed clusters, want the %d from before", n, goroutines)
	}
}
