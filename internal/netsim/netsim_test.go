package netsim

import (
	"testing"
	"testing/quick"
	"time"

	"lwfs/internal/sim"
)

const mb = 1 << 20

func twoNodeNet(k *sim.Kernel, bw float64, lat time.Duration) (*Network, *Node, *Node) {
	n := New(k, lat)
	a := n.AddNode("a", Config{EgressBW: bw, IngressBW: bw})
	b := n.AddNode("b", Config{EgressBW: bw, IngressBW: bw})
	return n, a, b
}

func TestPointToPointTiming(t *testing.T) {
	k := sim.NewKernel()
	net, a, b := twoNodeNet(k, 100*mb, 10*time.Microsecond)
	var deliveredAt sim.Time
	b.SetHandler(func(m Message) { deliveredAt = k.Now() })
	net.Send(Message{From: a.ID, To: b.ID, Size: 100 * mb})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	// egress 1s + 10us latency + ingress 1s
	want := sim.Time(0).Add(2*time.Second + 10*time.Microsecond)
	if deliveredAt != want {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestIngressContention(t *testing.T) {
	// Two senders to one receiver: transfers serialize on the receiver's
	// ingress, so total time is about 2x one transfer's ingress time.
	k := sim.NewKernel()
	net := New(k, time.Microsecond)
	fast := 1000.0 * mb
	slow := 100.0 * mb
	s1 := net.AddNode("s1", Config{EgressBW: fast, IngressBW: fast})
	s2 := net.AddNode("s2", Config{EgressBW: fast, IngressBW: fast})
	r := net.AddNode("r", Config{EgressBW: slow, IngressBW: slow})
	var last sim.Time
	count := 0
	r.SetHandler(func(m Message) { last = k.Now(); count++ })
	net.Send(Message{From: s1.ID, To: r.ID, Size: 100 * mb})
	net.Send(Message{From: s2.ID, To: r.ID, Size: 100 * mb})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("delivered %d", count)
	}
	// ~0.1s egress each (parallel), then 1s + 1s serialized ingress.
	if last < sim.Time(0).Add(2*time.Second) || last > sim.Time(0).Add(2200*time.Millisecond) {
		t.Fatalf("last delivery at %v", last)
	}
}

func TestEgressSerializesSuccessiveSends(t *testing.T) {
	k := sim.NewKernel()
	net, a, b := twoNodeNet(k, 100*mb, 0)
	var deliveries []sim.Time
	b.SetHandler(func(m Message) { deliveries = append(deliveries, k.Now()) })
	// Two 100MB messages from the same node: second's egress starts after
	// the first's completes.
	net.Send(Message{From: a.ID, To: b.ID, Size: 100 * mb})
	net.Send(Message{From: a.ID, To: b.ID, Size: 100 * mb})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if len(deliveries) != 2 {
		t.Fatalf("deliveries = %v", deliveries)
	}
	// First: 1s egress + 1s ingress = 2s. Second: egress finishes at 2s,
	// ingress busy until 2s, so delivery at 3s.
	if deliveries[0] != sim.Time(0).Add(2*time.Second) || deliveries[1] != sim.Time(0).Add(3*time.Second) {
		t.Fatalf("deliveries = %v", deliveries)
	}
}

func TestStatsCounters(t *testing.T) {
	k := sim.NewKernel()
	net, a, b := twoNodeNet(k, mb, 0)
	b.SetHandler(func(m Message) {})
	net.Send(Message{From: a.ID, To: b.ID, Size: 1024})
	net.Send(Message{From: a.ID, To: b.ID, Size: 2048})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	snap := net.Metrics().Snapshot()
	sent, bytesSent := snap.Value("net.a.msgs_sent"), snap.Value("net.a.bytes_sent")
	recv, bytesRecv := snap.Value("net.b.msgs_received"), snap.Value("net.b.bytes_received")
	if sent != 2 || recv != 2 || bytesSent != 3072 || bytesRecv != 3072 {
		t.Fatalf("stats: %v %v %v %v", sent, recv, bytesSent, bytesRecv)
	}
}

func TestSWOverheadAppliesPerMessage(t *testing.T) {
	k := sim.NewKernel()
	net := New(k, 0)
	a := net.AddNode("a", Config{EgressBW: 1e12, IngressBW: 1e12})
	b := net.AddNode("b", Config{EgressBW: 1e12, IngressBW: 1e12, SWOverhead: 5 * time.Microsecond})
	var times []sim.Time
	b.SetHandler(func(m Message) { times = append(times, k.Now()) })
	for i := 0; i < 3; i++ {
		net.Send(Message{From: a.ID, To: b.ID, Size: 1})
	}
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	// Receive processing serializes: ~5us, 10us, 15us.
	for i, at := range times {
		want := sim.Time(0).Add(time.Duration(i+1) * 5 * time.Microsecond)
		if at < want || at > want.Add(time.Microsecond) {
			t.Fatalf("times = %v", times)
		}
	}
}

func TestPayloadHelpers(t *testing.T) {
	p := BytesPayload([]byte("abcd"))
	if p.Size != 4 || string(p.Data) != "abcd" {
		t.Fatalf("BytesPayload = %+v", p)
	}
	s := SyntheticPayload(1 << 30)
	if s.Size != 1<<30 || s.Data != nil {
		t.Fatalf("SyntheticPayload = %+v", s)
	}
}

// Property: conservation — every byte sent to a handler-bearing node is
// eventually received, and delivery time is at least the latency plus both
// serializations (no faster-than-physics transfers).
func TestConservationProperty(t *testing.T) {
	prop := func(sizes []uint32) bool {
		k := sim.NewKernel()
		lat := 3 * time.Microsecond
		net, a, b := twoNodeNet(k, 200*mb, lat)
		var got int64
		b.SetHandler(func(m Message) { got += m.Size })
		var want int64
		minFinish := time.Duration(0)
		for _, s := range sizes {
			size := int64(s%(8*mb)) + 1
			want += size
			minFinish += sim.Rate(size, 200*mb) // ingress is the shared bottleneck
			net.Send(Message{From: a.ID, To: b.ID, Size: size})
		}
		if err := k.Run(sim.MaxTime); err != nil {
			return false
		}
		if got != want {
			return false
		}
		if len(sizes) > 0 && k.Now().Duration() < minFinish {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
