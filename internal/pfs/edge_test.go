package pfs_test

import (
	"bytes"
	"testing"

	"lwfs/internal/netsim"
	"lwfs/internal/pfs"
	"lwfs/internal/sim"
)

func TestCloseUpdatesMDSSize(t *testing.T) {
	cl, f := smallCluster(2)
	a := cl.NewPFSClient(f, 0)
	b := cl.NewPFSClient(f, 1)
	done := sim.NewMailbox(cl.K, "done")
	cl.K.Spawn("writer", func(p *sim.Proc) {
		file, _ := a.Create(p, "/sized", 0)
		file.Write(p, 0, netsim.SyntheticPayload(12345))
		file.Close(p)
		done.Send("ok")
	})
	cl.K.Spawn("reader", func(p *sim.Proc) {
		done.Recv(p)
		file, err := b.Open(p, "/sized")
		if err != nil || file.LayoutForTest().Size != 12345 {
			t.Errorf("open after close: %+v %v", file, err)
		}
	})
	run(t, cl)
}

func TestSparseStripedWrite(t *testing.T) {
	cl, f := smallCluster(4)
	c := cl.NewPFSClient(f, 0)
	cl.K.Spawn("app", func(p *sim.Proc) {
		file, _ := c.Create(p, "/sparse", 0)
		// Write far into the file, skipping several stripes.
		data := []byte("tail data")
		if _, err := file.Write(p, 7*mb, netsim.BytesPayload(data)); err != nil {
			t.Fatalf("sparse write: %v", err)
		}
		if got := pfs.ReadBackForTest(p, file, f.OSTs, 7*mb, int64(len(data))); !bytes.Equal(got, data) {
			t.Fatalf("sparse write landed as %q", got)
		}
		// The hole before it holds zeros, not garbage.
		if hole := pfs.ReadBackForTest(p, file, f.OSTs, 3*mb, 16); !bytes.Equal(hole, make([]byte, 16)) {
			t.Fatalf("hole contains %v", hole)
		}
	})
	run(t, cl)
}

func TestSingleStripeFile(t *testing.T) {
	cl, f := smallCluster(4)
	c := cl.NewPFSClient(f, 0)
	cl.K.Spawn("app", func(p *sim.Proc) {
		file, err := c.Create(p, "/one", 1)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if n := len(file.LayoutForTest().OSTs); n != 1 {
			t.Fatalf("stripes = %d", n)
		}
		data := make([]byte, 3*mb)
		for i := range data {
			data[i] = byte(i)
		}
		file.Write(p, 0, netsim.BytesPayload(data))
		if got := pfs.ReadBackForTest(p, file, f.OSTs, mb, mb); !bytes.Equal(got, data[mb:2*mb]) {
			t.Fatal("single-stripe range differs")
		}
	})
	run(t, cl)
}
