package portals

import (
	"testing"
	"time"

	"lwfs/internal/netsim"
	"lwfs/internal/sim"
)

// BenchmarkNullRPC is the wall-clock and allocation cost of one null RPC
// round trip between two warm endpoints (the unit the experiment sweeps are
// made of); allocs/op is what TestWarmNullRPCAllocatesNothing pins at zero.
func BenchmarkNullRPC(b *testing.B) {
	r := newRig(nil, 2, 230*mb)
	echoServer(r, 2, func(*Server) {})
	c := NewCaller(r.eps[0])
	b.ReportAllocs()
	r.k.Spawn("bench", func(p *sim.Proc) {
		for i := -100; i < b.N; i++ {
			if i == 0 {
				b.ResetTimer()
			}
			if _, err := c.Call(p, r.eps[1].Node(), 10, nil, 128, 128); err != nil {
				b.Error(err)
				return
			}
		}
	})
	if err := r.k.Run(sim.MaxTime); err != nil {
		b.Fatal(err)
	}
	r.k.Shutdown()
}

// BenchmarkPull is the wall-clock and allocation cost of one warm 8-chunk
// server-directed pull (Puller.Pull) between two endpoints; allocs/op is what
// TestWarmPullAllocatesNothing pins at zero.
func BenchmarkPull(b *testing.B) {
	const total = 8 * pullChunk
	r, pl, pool := pullRig(nil, total)
	sink := func(*sim.Proc, int64, netsim.Payload) error { return nil }
	b.ReportAllocs()
	r.k.Spawn("bench", func(p *sim.Proc) {
		for i := -100; i < b.N; i++ {
			if i == 0 {
				b.ResetTimer()
			}
			if _, err := pl.Pull(p, r.eps[0].Node(), 5, 1, total, pool, sink); err != nil {
				b.Error(err)
				return
			}
		}
	})
	if err := r.k.Run(sim.MaxTime); err != nil {
		b.Fatal(err)
	}
	r.k.Shutdown()
}

// Wall-clock cost of one simulated one-sided Get of a 1 MiB chunk — the
// inner loop of every server-directed transfer.
func BenchmarkSimulatedGet(b *testing.B) {
	k := sim.NewKernel()
	net := netsim.New(k, 10*time.Microsecond)
	cfg := netsim.Config{EgressBW: 230 << 20, IngressBW: 230 << 20}
	a := NewEndpoint(net, net.AddNode("a", cfg))
	c := NewEndpoint(net, net.AddNode("b", cfg))
	c.Attach(5, 1, 0, &MD{Payload: netsim.SyntheticPayload(1 << 30)})
	b.ResetTimer()
	k.Spawn("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if _, err := a.Get(p, c.Node(), 5, 1, 0, 1<<20); err != nil {
				b.Error(err)
				return
			}
		}
	})
	if err := k.Run(sim.MaxTime); err != nil {
		b.Fatal(err)
	}
}
