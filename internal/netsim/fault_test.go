package netsim

import (
	"testing"
	"time"

	"lwfs/internal/sim"
)

func TestFaultDropsMatchingMessages(t *testing.T) {
	k := sim.NewKernel()
	net, a, b := twoNodeNet(k, mb, time.Microsecond)
	delivered := 0
	b.SetHandler(func(m Message) { delivered++ })
	net.SetFault(func(m Message) bool { return m.Size > 1000 })
	net.Send(Message{From: a.ID, To: b.ID, Size: 100})  // passes
	net.Send(Message{From: a.ID, To: b.ID, Size: 5000}) // dropped
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 || net.dropped.Value() != 1 {
		t.Fatalf("delivered=%d dropped=%d", delivered, net.dropped.Value())
	}
}

func TestPartitionAndHeal(t *testing.T) {
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
	net.Partition([]NodeID{a.ID}, []NodeID{b.ID})
	net.Send(Message{From: a.ID, To: b.ID, Size: 10}) // dropped
	net.Send(Message{From: b.ID, To: a.ID, Size: 10}) // dropped (symmetric)
	net.Send(Message{From: a.ID, To: c.ID, Size: 10}) // crosses no cut
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if counts[b.ID] != 0 || counts[a.ID] != 0 || counts[c.ID] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	net.Heal()
	net.Send(Message{From: a.ID, To: b.ID, Size: 10})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if counts[b.ID] != 1 {
		t.Fatalf("post-heal counts = %v", counts)
	}
}
