package netsim

import (
	"testing"
	"time"

	"lwfs/internal/sim"
)

func TestTraceHookSeesTxAndRx(t *testing.T) {
	k := sim.NewKernel()
	net, a, b := twoNodeNet(k, mb, time.Microsecond)
	b.SetHandler(func(m Message) {})
	var events []string
	var lastAt sim.Time
	net.SetTrace(func(at sim.Time, m Message, kind string) {
		events = append(events, kind)
		if at < lastAt {
			t.Errorf("trace times went backwards: %v after %v", at, lastAt)
		}
		lastAt = at
		if m.From != a.ID || m.To != b.ID {
			t.Errorf("trace message endpoints: %+v", m)
		}
	})
	net.Send(Message{From: a.ID, To: b.ID, Size: 100})
	net.Send(Message{From: a.ID, To: b.ID, Size: 100})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	want := []string{"tx", "tx", "rx", "rx"}
	if len(events) != len(want) {
		t.Fatalf("events = %v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
	// Disabling the hook stops events.
	net.SetTrace(nil)
	net.Send(Message{From: a.ID, To: b.ID, Size: 1})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("trace fired after disable: %v", events)
	}
}
