package lwfspfs_test

import (
	"testing"

	"lwfs/internal/authz"
	"lwfs/internal/lwfspfs"
	"lwfs/internal/sim"
)

// Healthy opens of a mirrored metadata record must spread across the
// mirror set: each client starts its walk at a slot picked by its node id,
// so a population of clients load-balances the naming entry's mirrors
// instead of hammering slot 0. On the metaCluster the four compute nodes
// alternate even/odd node ids — with two mirrors, exactly half the opens
// must land on each slot, with zero degraded opens.
func TestMirrorRotationSpreadsOpens(t *testing.T) {
	cl, l := metaCluster()
	writer := cl.NewClient(l, 0)
	handoff := sim.NewMailbox(cl.K, "cid")
	const readers = 4

	cl.Spawn("writer", func(p *sim.Proc) {
		if err := writer.Login(p, "alice", "pa"); err != nil {
			t.Fatalf("login: %v", err)
		}
		fs, err := lwfspfs.Format(p, writer, "/vol", lwfspfs.Options{MetaCopies: 2})
		if err != nil {
			t.Fatalf("format: %v", err)
		}
		f, err := fs.Create(p, "/shared.bin")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if err := f.Close(p); err != nil {
			t.Fatalf("close: %v", err)
		}
		for i := 0; i < readers; i++ {
			handoff.Send(fs.Container())
		}
	})

	for i := 0; i < readers; i++ {
		i := i
		c := cl.NewClient(l, i)
		cl.Spawn("reader", func(p *sim.Proc) {
			cid := handoff.Recv(p).(authz.ContainerID)
			if err := c.Login(p, "alice", "pa"); err != nil {
				t.Fatalf("reader %d login: %v", i, err)
			}
			fs, err := lwfspfs.Mount(p, c, "/vol", cid)
			if err != nil {
				t.Fatalf("reader %d mount: %v", i, err)
			}
			_, degraded, err := openDegraded(p, cl, fs, "/shared.bin")
			if err != nil {
				t.Fatalf("reader %d open: %v", i, err)
			}
			if degraded {
				t.Errorf("reader %d open degraded on a healthy cluster", i)
			}
		})
	}
	run(t, cl)

	snap := cl.Metrics().Snapshot()
	if got := snap.Sum("pfs.meta.open_slot.0"); got != readers/2 {
		t.Errorf("slot 0 served %v opens, want %d", got, readers/2)
	}
	if got := snap.Sum("pfs.meta.open_slot.1"); got != readers/2 {
		t.Errorf("slot 1 served %v opens, want %d", got, readers/2)
	}
	if got := snap.Sum("pfs.meta.degraded_opens"); got != 0 {
		t.Errorf("degraded_opens = %v, want 0", got)
	}
}
