package core_test

import (
	"encoding/binary"
	"errors"
	"testing"

	"lwfs/internal/authz"
	"lwfs/internal/naming"
	"lwfs/internal/netsim"
	"lwfs/internal/sim"
)

func TestFilterThroughCore(t *testing.T) {
	cl, l := smallCluster()
	sum := func(acc []byte, chunk netsim.Payload) []byte {
		var n uint64
		if len(acc) == 8 {
			n = binary.BigEndian.Uint64(acc)
		}
		for _, b := range chunk.Data {
			n += uint64(b)
		}
		out := make([]byte, 8)
		binary.BigEndian.PutUint64(out, n)
		return out
	}
	for _, srv := range l.Servers {
		srv.RegisterFilter("sum", sum)
	}
	c := cl.NewClient(l, 0)
	cl.K.Spawn("app", func(p *sim.Proc) {
		c.Login(p, "app", "s3cret")
		cid, _ := c.CreateContainer(p)
		caps, _ := c.GetCaps(p, cid, authz.AllOps...)
		ref, _ := c.CreateObject(p, c.Server(1), caps)
		data := []byte{1, 2, 3, 4, 5}
		c.Write(p, ref, caps, 0, netsim.BytesPayload(data))
		out, err := c.Filter(p, ref, caps, 0, 5, "sum", "", 64)
		if err != nil {
			t.Fatalf("filter: %v", err)
		}
		if got := binary.BigEndian.Uint64(out); got != 15 {
			t.Fatalf("sum = %d", got)
		}
	})
	run(t, cl)
}

func TestNamingWrappers(t *testing.T) {
	cl, l := smallCluster()
	c := cl.NewClient(l, 0)
	cl.K.Spawn("app", func(p *sim.Proc) {
		c.Login(p, "app", "s3cret")
		cid, _ := c.CreateContainer(p)
		caps, _ := c.GetCaps(p, cid, authz.AllOps...)
		ref, _ := c.CreateObject(p, c.Server(0), caps)
		if err := c.Mkdir(p, "/dir"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := c.CreateName(p, "/dir/x", ref, nil); err != nil {
			t.Fatalf("name: %v", err)
		}
		names, err := c.ListNames(p, "/dir")
		if err != nil || len(names) != 1 || names[0] != "x" {
			t.Fatalf("list: %v %v", names, err)
		}
		e, err := c.RemoveName(p, "/dir/x")
		if err != nil || len(e.Refs) != 1 || e.Refs[0] != ref {
			t.Fatalf("remove: %+v %v", e, err)
		}
		if _, err := c.Lookup(p, "/dir/x"); !errors.Is(err, naming.ErrNotFound) {
			t.Fatalf("lookup removed: %v", err)
		}
	})
	run(t, cl)
}

func TestScatterToZeroPeers(t *testing.T) {
	cl, l := smallCluster()
	c := cl.NewClient(l, 0)
	cl.K.Spawn("app", func(p *sim.Proc) {
		c.Login(p, "app", "s3cret")
		cid, _ := c.CreateContainer(p)
		caps, _ := c.GetCaps(p, cid, authz.OpRead)
		c.ScatterCaps(p, caps, nil) // no peers: no messages, no hang
	})
	run(t, cl)
}

func TestAccessorsExposed(t *testing.T) {
	cl, l := smallCluster()
	c := cl.NewClient(l, 0)
	if c.Locks() == nil || c.Endpoint() == nil {
		t.Fatal("accessors returned nil")
	}
	if len(c.Servers()) != 4 {
		t.Fatalf("servers = %d", len(c.Servers()))
	}
	if c.Server(5) != c.Server(1) {
		t.Fatal("Server() not modular")
	}
	_ = l
	_ = cl
}

func TestWriteErrorsSurfaceThroughRenewWrapper(t *testing.T) {
	// Non-expiry errors must pass through renewal untouched.
	cl, l := smallCluster()
	c := cl.NewClient(l, 0)
	cl.K.Spawn("app", func(p *sim.Proc) {
		c.Login(p, "app", "s3cret")
		cid, _ := c.CreateContainer(p)
		caps, _ := c.GetCaps(p, cid, authz.AllOps...)
		ref, _ := c.CreateObject(p, c.Server(0), caps)
		badRef := ref
		badRef.ID += 999
		if _, err := c.Write(p, badRef, caps, 0, netsim.SyntheticPayload(1)); err == nil {
			t.Fatal("write to missing object succeeded")
		}
	})
	run(t, cl)
}
