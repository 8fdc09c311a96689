package burst_test

import (
	"lwfs/internal/authz"
	"lwfs/internal/burst"
	"lwfs/internal/netsim"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"testing"
)

// yieldScenario drives the drain/pass-through collision: a tiny staging
// window is filled with small writes (kicking off slow, paced drains), then
// a large write arrives that cannot fit and relays synchronously while the
// drains are still streaming. With the yield fix the drain workers step
// aside for the duration of the relay; NoDrainYield restores the old
// inversion. Returns the observed yield count.
func yieldScenario(t *testing.T, noYield bool) int64 {
	t.Helper()
	cfg := burst.DefaultConfig()
	cfg.StageCapacity = 256 << 10
	cfg.DrainWorkers = 1
	cfg.DrainBW = 25 << 20 // ~2.5ms pacing per 64KiB extent: drains overlap the relay
	cfg.NoDrainYield = noYield
	r, srv, bb := boot(t, cfg)
	sc := storage.NewClient(r.Caller(3))
	bc := burst.NewClient(r.Caller(3))
	r.Go("client", func(p *sim.Proc) {
		cid, caps := session(t, p, r)
		tgt := storage.Target{Node: srv.Node(), Port: srv.RPCPort()}
		var refs []storage.ObjRef
		for i := 0; i < 4; i++ {
			ref, err := sc.Create(p, tgt, caps[authz.OpCreate], cid)
			if err != nil {
				t.Fatalf("create %d: %v", i, err)
			}
			staged, err := bc.StageWrite(p, bb.Tgt(), ref, caps[authz.OpWrite], 0, netsim.SyntheticPayload(64<<10))
			if err != nil || !staged {
				t.Fatalf("stage %d: staged=%v err=%v", i, staged, err)
			}
			refs = append(refs, ref)
		}
		// 4 MiB can never fit the 256 KiB window: guaranteed pass-through,
		// relayed while the staged extents are still draining.
		big, err := sc.Create(p, tgt, caps[authz.OpCreate], cid)
		if err != nil {
			t.Fatalf("create big: %v", err)
		}
		staged, err := bc.StageWrite(p, bb.Tgt(), big, caps[authz.OpWrite], 0, netsim.SyntheticPayload(4<<20))
		if err != nil || staged {
			t.Fatalf("big write: staged=%v err=%v, want pass-through", staged, err)
		}
		if st, err := srv.Device().Stat(big.ID); err != nil || st.Size != 4<<20 {
			t.Fatalf("big object after relay: size=%v err=%v", st.Size, err)
		}
		if err := bc.DrainWait(p, bb.Tgt(), refs, 0); err != nil {
			t.Fatalf("drain wait: %v", err)
		}
	})
	r.Run(t)
	if staged, pass := r.Metric("burst.*.staged"), r.Metric("burst.*.passthroughs"); pass != 1 || staged != 4 {
		t.Fatalf("passthroughs=%d staged=%d, want 1/4", pass, staged)
	}
	return r.Metric("burst.*.drain.yields")
}

// TestDrainYieldsToPassthrough: the foreground/background inversion fix —
// drain workers pause while a synchronous pass-through relay is in flight,
// instead of competing with the one client actually waiting on storage.
func TestDrainYieldsToPassthrough(t *testing.T) {
	if n := yieldScenario(t, false); n < 1 {
		t.Fatalf("drain never yielded to the pass-through relay (yields=%d)", n)
	}
}

// TestNoDrainYieldAblation: the ablation knob really disables the yield.
func TestNoDrainYieldAblation(t *testing.T) {
	if n := yieldScenario(t, true); n != 0 {
		t.Fatalf("NoDrainYield set but drains yielded %d times", n)
	}
}
