package lwfspfs_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"lwfs/internal/cluster"
	"lwfs/internal/lwfspfs"
	"lwfs/internal/naming"
	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/stripe"
)

// A create enlists naming last, so naming is the decision site: its name
// record, its vote and the decision are one journal append under one flush
// barrier, and nothing else of the create touches naming's disk. (With
// naming prepared like any participant the create cost it three appends:
// the name record, the prepare and the commit.)
func TestCreateDecidesAtTheNamingSiteInOneAppend(t *testing.T) {
	cl, l := smallCluster()
	c := cl.NewClient(l, 0)
	cl.Spawn("app", func(p *sim.Proc) {
		c.Login(p, "alice", "pa")
		fs, err := lwfspfs.Format(p, c, "/vol", lwfspfs.Options{})
		if err != nil {
			t.Fatalf("format: %v", err)
		}
		if _, err := fs.Create(p, "/warm"); err != nil { // the journal object exists
			t.Fatalf("create: %v", err)
		}
		dev := l.NamingDev
		_, _, _, writes, _, bytes := dev.Counters()
		syncs, busy := dev.Syncs(), dev.DiskBusy()
		if _, err := fs.Create(p, "/f"); err != nil {
			t.Fatalf("create: %v", err)
		}
		_, _, _, w, _, b := dev.Counters()
		if w-writes != 1 || dev.Syncs()-syncs != 1 {
			t.Errorf("one create: %d appends and %d syncs on naming's disk, want 1 and 1", w-writes, dev.Syncs()-syncs)
		}
		disk := osd.DefaultDiskParams()
		if want := disk.PerOpOverhead + sim.Rate(b-bytes, disk.BandwidthBps) + disk.SyncCost; dev.DiskBusy()-busy != want {
			t.Errorf("one create kept naming's disk busy %v, want one append and one barrier, %v", dev.DiskBusy()-busy, want)
		}
		recs, err := l.NamingTxn.ReadJournal(p)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(recs); n < 2 || recs[n-2].Kind != "name" || !strings.HasSuffix(recs[n-2].Detail, "/f") || recs[n-1].Kind != "commit" {
			t.Errorf("naming's journal ends %+v, want the name record, then the commit", recs[max(0, n-2):])
		}
	})
	run(t, cl)
}

// A create whose storage servers crash while the outcome is being
// delivered keeps both the name and the objects, or neither: the first
// commit to a storage server crashes every other one, and once they restart
// the file system must not hold a name without its objects, nor objects of
// the create without its name.
func TestCreateWithStorageCrashedBetweenCommitsKeepsBothOrNeither(t *testing.T) {
	cl, l := smallCluster()
	c := cl.NewClient(l, 0)
	c.SetRetry(pfsRetry, 63)
	isServer := map[netsim.NodeID]bool{}
	for _, srv := range l.Servers {
		isServer[srv.Node()] = true
	}
	armed, fired := false, false
	cl.Net.SetTrace(func(_ sim.Time, m netsim.Message, event string) {
		if !armed || fired || event != "tx" || !isServer[m.To] || !strings.Contains(portals.DescribeBody(m.Body), "commitReq") {
			return
		}
		fired = true
		for _, srv := range l.Servers {
			if srv.Node() != m.To {
				srv.Crash()
			}
		}
	})
	cl.Spawn("app", func(p *sim.Proc) {
		c.Login(p, "alice", "pa")
		fs, err := lwfspfs.Format(p, c, "/vol", lwfspfs.Options{MetaCopies: 2})
		if err != nil {
			t.Fatalf("format: %v", err)
		}
		before := totalObjects(l, fs.Container())
		armed = true
		_, cerr := fs.Create(p, "/f")
		if !fired {
			t.Fatal("no commit reached a storage server: the test is vacuous")
		}
		p.Sleep(50 * time.Millisecond)
		for _, srv := range l.Servers {
			if srv.Down() {
				if _, err := srv.Restart(p); err != nil {
					t.Fatalf("restart: %v", err)
				}
			}
		}
		p.Sleep(10 * time.Second) // every helper delivers or gives up
		made := totalObjects(l, fs.Container()) - before
		f, err := fs.Open(p, "/f")
		switch {
		case err == nil:
			named := len(f.MetaRefs())
			for _, ref := range f.Layout().Objs {
				if !stripe.IsHole(ref) {
					named++
					if _, serr := serverOf(l, ref).Device().Stat(ref.ID); serr != nil {
						t.Errorf("the name survived but its object %v did not: %v", ref, serr)
					}
				}
			}
			if made != named {
				t.Errorf("the create left %d objects, its name references %d", made, named)
			}
		case errors.Is(err, naming.ErrNotFound):
			if made != 0 {
				t.Errorf("the name is gone but %d objects of the create remain", made)
			}
		default:
			t.Errorf("open after the crash: %v", err)
		}
		if cerr == nil && err != nil {
			t.Errorf("Create returned nil, but the file is gone: %v", err)
		}
	})
	run(t, cl)
}

// serverOf is the server holding ref.
func serverOf(l *cluster.LWFS, ref storage.ObjRef) *storage.Server {
	for _, srv := range l.Servers {
		if srv.Node() == ref.Node && srv.RPCPort() == ref.Port {
			return srv
		}
	}
	return nil
}
