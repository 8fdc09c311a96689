//go:build !race

package burst_test

import (
	"runtime"
	"testing"

	"lwfs/internal/authz"
	"lwfs/internal/burst"
	"lwfs/internal/netsim"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
)

// A seeded run staged and drained stays its seed: the buffer joins the
// pulled chunks back into the run (netsim.Joiner) instead of copying them
// into a buffer of their bytes, and the drain stores the run as it is. A
// warm 1 MiB stage and drain allocates ≈ 0.4 KB; expanding the run cost a
// MiB. (The race detector poisons released records instead of recycling
// them.)
func TestSeededStageKeepsItsSeed(t *testing.T) {
	r, srv, bb := boot(t, burst.DefaultConfig())
	sc := storage.NewClient(r.Caller(3))
	bc := burst.NewClient(r.Caller(3))
	const rounds = 8
	var alloc uint64
	r.Go("client", func(p *sim.Proc) {
		cid, caps := session(t, p, r)
		ref, err := sc.Create(p, storage.Target{Node: srv.Node(), Port: srv.RPCPort()}, caps[authz.OpCreate], cid)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		data := netsim.SeededPayload(22, mb)
		round := func() {
			if staged, err := bc.StageWrite(p, bb.Tgt(), ref, caps[authz.OpWrite], 0, data); !staged || err != nil {
				t.Fatalf("stage: staged=%v err=%v", staged, err)
			}
			if err := bc.DrainWait(p, bb.Tgt(), []storage.ObjRef{ref}, 0); err != nil {
				t.Fatalf("drain: %v", err)
			}
		}
		round()
		round()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			round()
		}
		runtime.ReadMemStats(&after)
		alloc = (after.TotalAlloc - before.TotalAlloc) / rounds
		got, err := sc.Read(p, ref, caps[authz.OpRead], 0, data.Size)
		if err != nil || !got.Seeded() || got.Size != data.Size {
			t.Errorf("read back %d bytes (seeded %v), %v: want the staged run", got.Size, got.Seeded(), err)
		}
	})
	r.Run(t)
	t.Logf("a warm seeded stage and drain allocates %d B", alloc)
	if alloc >= 64<<10 {
		t.Errorf("a warm 1 MiB seeded stage and drain allocates %d B: the run was expanded into bytes", alloc)
	}
}
