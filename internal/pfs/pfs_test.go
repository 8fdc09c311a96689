package pfs_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"lwfs/internal/cluster"
	"lwfs/internal/netsim"
	"lwfs/internal/pfs"
	"lwfs/internal/sim"
	"lwfs/internal/testrig"
)

const mb = 1 << 20

func smallCluster(servers int) (*cluster.Cluster, *cluster.PFS) {
	spec := cluster.DevCluster()
	spec.ComputeNodes = 8
	spec = spec.WithServers(servers)
	cl := cluster.New(spec)
	return cl, cl.DeployPFS()
}

func run(t *testing.T, cl *cluster.Cluster) {
	t.Helper()
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	cl, f := smallCluster(4)
	c := cl.NewPFSClient(f, 0)
	cl.K.Spawn("app", func(p *sim.Proc) {
		file, err := c.Create(p, "/ckpt/rank0", 0)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		data := make([]byte, 3*mb+12345) // crosses stripe units and OSTs
		rng := rand.New(rand.NewSource(7))
		rng.Read(data)
		n, err := file.Write(p, 0, netsim.BytesPayload(data))
		if err != nil || n != int64(len(data)) {
			t.Fatalf("write: n=%d err=%v", n, err)
		}
		if err := file.Sync(p); err != nil {
			t.Fatalf("sync: %v", err)
		}
		if err := file.Close(p); err != nil {
			t.Fatalf("close: %v", err)
		}
		if got := pfs.ReadBackForTest(p, file, f.OSTs, 0, int64(len(data))); !bytes.Equal(got, data) {
			t.Fatal("striped write corrupted data")
		}
		// Unaligned range spanning OSTs.
		if got := pfs.ReadBackForTest(p, file, f.OSTs, 777777, 1500000); !bytes.Equal(got, data[777777:777777+1500000]) {
			t.Fatal("offset range differs")
		}
	})
	run(t, cl)
}

func TestOpenSeesOtherWritersData(t *testing.T) {
	cl, f := smallCluster(4)
	a := cl.NewPFSClient(f, 0)
	b := cl.NewPFSClient(f, 1)
	done := sim.NewMailbox(cl.K, "done")
	data := []byte("written-by-a")
	cl.K.Spawn("a", func(p *sim.Proc) {
		file, err := a.Create(p, "/shared", 0)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		file.Write(p, 0, netsim.BytesPayload(data))
		file.Close(p)
		done.Send("ok")
	})
	cl.K.Spawn("b", func(p *sim.Proc) {
		done.Recv(p)
		file, err := b.Open(p, "/shared")
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if got := pfs.ReadBackForTest(p, file, f.OSTs, 0, int64(len(data))); !bytes.Equal(got, data) {
			t.Fatalf("opened file holds %q", got)
		}
	})
	run(t, cl)
}

func TestCreateDuplicateAndOpenMissing(t *testing.T) {
	cl, f := smallCluster(2)
	c := cl.NewPFSClient(f, 0)
	cl.K.Spawn("app", func(p *sim.Proc) {
		if _, err := c.Create(p, "/x", 0); err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, err := c.Create(p, "/x", 0); !errors.Is(err, pfs.ErrExists) {
			t.Errorf("dup create: %v", err)
		}
		if _, err := c.Open(p, "/nope"); !errors.Is(err, pfs.ErrNotFound) {
			t.Errorf("open missing: %v", err)
		}
	})
	run(t, cl)
}

func TestMDSSerializesCreates(t *testing.T) {
	cl, f := smallCluster(4)
	var last sim.Time
	n := 8
	for i := 0; i < n; i++ {
		c := cl.NewPFSClient(f, i)
		path := fmt.Sprintf("/f%d", i)
		cl.K.Spawn(fmt.Sprintf("app%d", i), func(p *sim.Proc) {
			if _, err := c.Create(p, path, 0); err != nil {
				t.Errorf("create: %v", err)
			}
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	run(t, cl)
	// 8 creates at 1.3ms serialized ≈ 10.4ms, regardless of OST count.
	if last.Duration() < 8*1300*time.Microsecond {
		t.Fatalf("creates overlapped at the MDS: finished at %v", last)
	}
	if creates := testrig.Metric(cl.Metrics(), "pfs.mds.creates"); creates != int64(n) {
		t.Fatalf("creates = %d", creates)
	}
}

func TestSharedFileLockSwitches(t *testing.T) {
	cl, f := smallCluster(2)
	nClients := 4
	perClient := int64(8 * mb)
	done := sim.NewMailbox(cl.K, "created")
	cl.K.Spawn("rank0", func(p *sim.Proc) {
		c := cl.NewPFSClient(f, 0)
		file, err := c.Create(p, "/shared", 0)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		file.SetShared(true)
		for i := 1; i < nClients; i++ {
			done.Send("go")
		}
		if _, err := file.Write(p, 0, netsim.SyntheticPayload(perClient)); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	for i := 1; i < nClients; i++ {
		i := i
		cl.K.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			done.Recv(p)
			c := cl.NewPFSClient(f, i)
			file, err := c.Open(p, "/shared")
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			file.SetShared(true)
			if _, err := file.Write(p, int64(i)*perClient, netsim.SyntheticPayload(perClient)); err != nil {
				t.Errorf("write: %v", err)
			}
		})
	}
	run(t, cl)
	switches := testrig.Metric(cl.Metrics(), "pfs.*.lock_switches")
	// Interleaved shared writers must ping-pong extent locks heavily.
	if switches < int64(nClients) {
		t.Fatalf("lock switches = %d; shared-file contention not modeled", switches)
	}
}

func TestSharedSlowerThanFilePerProcess(t *testing.T) {
	// The Figure 9 headline in miniature: same data volume, shared file vs
	// file per process; shared must be substantially slower.
	const nClients = 4
	const perClient = 32 * mb

	elapsed := func(shared bool) time.Duration {
		cl, f := smallCluster(4)
		var last sim.Time
		ready := sim.NewMailbox(cl.K, "ready")
		cl.K.Spawn("rank0", func(p *sim.Proc) {
			c := cl.NewPFSClient(f, 0)
			var file *pfs.File
			var err error
			if shared {
				file, err = c.Create(p, "/data", 0)
			} else {
				file, err = c.Create(p, "/data-0", 0)
			}
			if err != nil {
				panic(err)
			}
			file.SetShared(shared)
			for i := 1; i < nClients; i++ {
				ready.Send("go")
			}
			start := p.Now()
			file.Write(p, 0, netsim.SyntheticPayload(perClient))
			file.Sync(p)
			_ = start
			if p.Now() > last {
				last = p.Now()
			}
		})
		for i := 1; i < nClients; i++ {
			i := i
			cl.K.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
				ready.Recv(p)
				c := cl.NewPFSClient(f, i)
				var file *pfs.File
				var err error
				if shared {
					file, err = c.Open(p, "/data")
					if err == nil {
						file.SetShared(true)
					}
				} else {
					file, err = c.Create(p, fmt.Sprintf("/data-%d", i), 0)
				}
				if err != nil {
					panic(err)
				}
				off := int64(0)
				if shared {
					off = int64(i) * perClient
				}
				file.Write(p, off, netsim.SyntheticPayload(perClient))
				file.Sync(p)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		if err := cl.Run(); err != nil {
			panic(err)
		}
		return last.Duration()
	}

	tShared := elapsed(true)
	tFPP := elapsed(false)
	ratio := tShared.Seconds() / tFPP.Seconds()
	if ratio < 1.4 {
		t.Fatalf("shared/fpp time ratio = %.2f (shared %v, fpp %v); consistency penalty missing", ratio, tShared, tFPP)
	}
	if ratio > 4.0 {
		t.Fatalf("shared/fpp time ratio = %.2f; penalty implausibly large", ratio)
	}
}

// Property: striped writes of arbitrary data at arbitrary offsets land where
// the round-robin rule puts them, for any stripe count.
func TestStripedRoundTripProperty(t *testing.T) {
	prop := func(seed int64, stripesRaw uint8) bool {
		stripes := int(stripesRaw%4) + 1
		cl, f := smallCluster(4)
		rng := rand.New(rand.NewSource(seed))
		ok := true
		cl.K.Spawn("app", func(p *sim.Proc) {
			c := cl.NewPFSClient(f, 0)
			file, err := c.Create(p, "/t", stripes)
			if err != nil {
				ok = false
				return
			}
			// Small stripe unit comes from config; emulate by writing
			// ranges crossing many units.
			model := make([]byte, 4*mb)
			touched := false
			for i := 0; i < 4; i++ {
				off := int64(rng.Intn(2 * mb))
				data := make([]byte, rng.Intn(mb)+1)
				rng.Read(data)
				if _, err := file.Write(p, off, netsim.BytesPayload(data)); err != nil {
					ok = false
					return
				}
				copy(model[off:], data)
				touched = true
			}
			if !touched {
				return
			}
			ok = bytes.Equal(pfs.ReadBackForTest(p, file, f.OSTs, 0, int64(len(model))), model)
		})
		if err := cl.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
