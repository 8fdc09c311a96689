//go:build !race

package storage_test

import (
	"testing"

	"lwfs/internal/authz"
	"lwfs/internal/netsim"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/testrig"
)

// A warm Write and Read of a seeded run allocate nothing: the requests and
// replies ride recycled records and cells, the data moves as its seed, and
// the read's chunks join back into one run. (The race detector poisons
// released records instead of recycling them.)
func TestWarmSeededWriteReadAllocatesNothing(t *testing.T) {
	r := testrig.New(3)
	srv := boot(r, 1)
	sc := storage.NewClient(r.Caller(2))
	var writes, reads float64
	r.Go("client", func(p *sim.Proc) {
		s := newSession(t, p, r, 2, authz.OpCreate, authz.OpWrite, authz.OpRead)
		ref, err := sc.Create(p, storage.Target{Node: srv.Node(), Port: srv.RPCPort()}, s.caps[authz.OpCreate], s.cid)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		data := netsim.SeededPayload(7, 3*storage.DefaultConfig().ChunkSize/2)
		write := func() {
			if n, err := sc.Write(p, ref, s.caps[authz.OpWrite], 0, data); n != data.Size || err != nil {
				t.Errorf("write: %d, %v", n, err)
			}
		}
		read := func() {
			if got, err := sc.Read(p, ref, s.caps[authz.OpRead], 0, data.Size); got.Size != data.Size || !got.Seeded() || err != nil {
				t.Errorf("read: %d bytes (seeded %v), %v", got.Size, got.Seeded(), err)
			}
		}
		for i := 0; i < 20; i++ {
			write()
			read()
		}
		writes, reads = testing.AllocsPerRun(200, write), testing.AllocsPerRun(200, read)
	})
	r.Run(t)
	if writes != 0 || reads != 0 {
		t.Errorf("a warm seeded Write makes %.2f allocations and a Read %.2f, want none", writes, reads)
	}
}
