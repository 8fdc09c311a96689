package netsim

import (
	"testing"
	"time"

	"lwfs/internal/sim"
)

func TestPartitionsComposeAndHealIndependently(t *testing.T) {
	k := sim.NewKernel()
	net := New(k, time.Microsecond)
	cfg := Config{EgressBW: mb, IngressBW: mb}
	a := net.AddNode("a", cfg)
	b := net.AddNode("b", cfg)
	c := net.AddNode("c", cfg)
	counts := map[NodeID]int{}
	for _, nd := range []*Node{a, b, c} {
		id := nd.ID
		nd.SetHandler(func(m Message) { counts[id]++ })
	}
	pab := net.Partition([]NodeID{a.ID}, []NodeID{b.ID})
	pac := net.Partition([]NodeID{a.ID}, []NodeID{c.ID})
	net.Send(Message{From: a.ID, To: b.ID, Size: 10}) // dropped by pab
	net.Send(Message{From: a.ID, To: c.ID, Size: 10}) // dropped by pac
	net.Send(Message{From: b.ID, To: c.ID, Size: 10}) // crosses no cut
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if counts[b.ID] != 0 || counts[c.ID] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if pab.Dropped() != 1 || pac.Dropped() != 1 {
		t.Fatalf("per-rule drops: ab=%d ac=%d", pab.Dropped(), pac.Dropped())
	}

	// Healing one cut must not heal the other.
	pab.Heal()
	net.Send(Message{From: a.ID, To: b.ID, Size: 10}) // flows again
	net.Send(Message{From: a.ID, To: c.ID, Size: 10}) // still dropped
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if counts[b.ID] != 1 || counts[c.ID] != 1 {
		t.Fatalf("post-heal counts = %v", counts)
	}
	if !pab.Healed() || pac.Healed() {
		t.Fatal("heal flags wrong")
	}
	net.Heal()
	net.Send(Message{From: a.ID, To: c.ID, Size: 10})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if counts[c.ID] != 2 {
		t.Fatalf("Network.Heal did not clear remaining cut: %v", counts)
	}
}

func TestDropWindowOnlyLiveInsideWindow(t *testing.T) {
	k := sim.NewKernel()
	net, a, b := twoNodeNet(k, mb, time.Microsecond)
	delivered := 0
	b.SetHandler(func(m Message) { delivered++ })
	start := sim.Time(0).Add(10 * time.Millisecond)
	end := sim.Time(0).Add(20 * time.Millisecond)
	var f *Fault
	k.At(start, func() { f = net.InjectFault(FaultSpec{DropProb: 1}) })
	k.At(end, func() { f.Heal() })
	send := func(at time.Duration) {
		k.At(sim.Time(0).Add(at), func() { net.Send(Message{From: a.ID, To: b.ID, Size: 10}) })
	}
	send(5 * time.Millisecond)  // before window: delivered
	send(15 * time.Millisecond) // inside: dropped
	send(25 * time.Millisecond) // after: delivered
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if delivered != 2 || net.dropped.Value() != 1 {
		t.Fatalf("delivered=%d dropped=%d", delivered, net.dropped.Value())
	}
}

func TestProbabilisticDropsAreSeedDeterministic(t *testing.T) {
	run := func(seed int64) (delivered int, dropped int64) {
		k := sim.NewKernel()
		net, a, b := twoNodeNet(k, mb, time.Microsecond)
		b.SetHandler(func(m Message) { delivered++ })
		net.SetChaosSeed(seed)
		net.InjectFault(FaultSpec{DropProb: 0.3})
		for i := 0; i < 200; i++ {
			at := time.Duration(i) * time.Millisecond
			k.At(sim.Time(0).Add(at), func() { net.Send(Message{From: a.ID, To: b.ID, Size: 10}) })
		}
		if err := k.Run(sim.MaxTime); err != nil {
			t.Fatal(err)
		}
		return delivered, net.dropped.Value()
	}
	d1, x1 := run(11)
	d2, x2 := run(11)
	if d1 != d2 || x1 != x2 {
		t.Fatalf("same seed diverged: %d/%d vs %d/%d", d1, x1, d2, x2)
	}
	if x1 < 20 || x1 > 120 {
		t.Fatalf("drop count %d implausible for p=0.3 over 200 sends", x1)
	}
	d3, _ := run(12)
	if d3 == d1 {
		t.Log("different seeds gave equal delivery counts (possible but unlikely)")
	}
}

func TestDegradeAddsLatency(t *testing.T) {
	k := sim.NewKernel()
	net, a, b := twoNodeNet(k, mb, time.Microsecond)
	var at []sim.Time
	b.SetHandler(func(m Message) { at = append(at, k.Now()) })
	net.Send(Message{From: a.ID, To: b.ID, Size: 10})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	f := net.Degrade([]NodeID{b.ID}, 0, 500*time.Microsecond)
	net.Send(Message{From: a.ID, To: b.ID, Size: 10})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	f.Heal()
	if len(at) != 2 {
		t.Fatalf("deliveries = %d", len(at))
	}
	base := at[0]
	degraded := at[1].Sub(sim.Time(0)) - base.Sub(sim.Time(0))
	if degraded < 500*time.Microsecond {
		t.Fatalf("degradation added only %v", degraded)
	}
}
