package sim

import (
	"testing"
	"time"
)

// These benchmarks measure the simulator itself (wall-clock cost per
// simulated action), not any simulated system: they bound how large an
// experiment the kernel can push through per second of real time.

func BenchmarkEventDispatch(b *testing.B) {
	k := NewKernel()
	n := 0
	for i := 0; i < b.N; i++ {
		k.After(time.Duration(i), func() { n++ })
	}
	b.ResetTimer()
	if err := k.Run(MaxTime); err != nil {
		b.Fatal(err)
	}
	if n != b.N {
		b.Fatalf("ran %d events", n)
	}
}

func BenchmarkProcessSwitch(b *testing.B) {
	// Ping-pong between two processes: two parks/unparks per iteration.
	k := NewKernel()
	ping := NewMailbox(k, "ping")
	pong := NewMailbox(k, "pong")
	k.Spawn("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Send(i)
			pong.Recv(p)
		}
	})
	k.Spawn("b", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Recv(p)
			pong.Send(i)
		}
	})
	b.ResetTimer()
	if err := k.Run(MaxTime); err != nil {
		b.Fatal(err)
	}
}

// TestAfterDispatchZeroAlloc guards the kernel's steady-state hot path:
// once the heap, arena and free list are warm, scheduling and dispatching a
// timer event must not allocate (pool hits only). This is the property that
// lets a 10k-client sweep run tens of millions of events without GC churn.
func TestAfterDispatchZeroAlloc(t *testing.T) {
	k := NewKernel()
	fired := 0
	fn := func() { fired++ }
	// Warm the arena, heap and ring.
	for i := 0; i < 128; i++ {
		k.After(time.Duration(i)*time.Microsecond, fn)
	}
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		k.After(time.Microsecond, fn)
		if err := k.Run(MaxTime); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state After+dispatch allocates %.1f objects/op, want 0", avg)
	}
}

// TestTimeoutChurnZeroAlloc guards the cancelable-timeout path that every
// RPC retry and breaker probe rides: arming a RecvTimeout that is beaten by
// the message (timeout canceled, slot recycled) must not allocate in steady
// state.
func TestTimeoutChurnZeroAlloc(t *testing.T) {
	k := NewKernel()
	m := NewMailbox(k, "churn")
	var avg float64
	k.Spawn("recv", func(p *Proc) {
		// Warm up: pre-build the proc's pooled timeout closure and waiter.
		k.After(time.Microsecond, func() { m.Send(1) })
		if _, ok := m.RecvTimeout(p, time.Millisecond); !ok {
			t.Error("warmup recv timed out")
		}
		avg = testing.AllocsPerRun(200, func() {
			k.After(time.Microsecond, func() { m.Send(nil) })
			if _, ok := m.RecvTimeout(p, time.Millisecond); !ok {
				t.Error("recv timed out")
			}
		})
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if avg > 1 {
		// The delayed Send allocates its delivery closure; the
		// RecvTimeout/cancel cycle must add nothing on top.
		t.Fatalf("steady-state RecvTimeout churn allocates %.1f objects/op, want <=1", avg)
	}
}

func BenchmarkFIFOServerSchedule(b *testing.B) {
	k := NewKernel()
	s := NewFIFOServer(k, "s")
	for i := 0; i < b.N; i++ {
		s.Schedule(time.Microsecond, nil)
	}
	b.ResetTimer()
	if err := k.Run(MaxTime); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkSpawnExit(b *testing.B) {
	k := NewKernel()
	for i := 0; i < b.N; i++ {
		k.Spawn("p", func(p *Proc) {})
	}
	b.ResetTimer()
	if err := k.Run(MaxTime); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSpawnChurn is the shape of a stripe fan-out: each iteration spawns
// four short-lived legs and joins them, so — unlike BenchmarkSpawnExit, whose
// b.N processes all exist at once — every leg after the first round runs on a
// recycled record and coroutine.
func BenchmarkSpawnChurn(b *testing.B) {
	k := NewKernel()
	k.Spawn("driver", func(p *Proc) {
		var wg WaitGroup
		leg := func(p *Proc) { wg.Done() }
		for i := 0; i < b.N; i++ {
			wg.Add(4)
			for l := 0; l < 4; l++ {
				k.Spawn("leg", leg)
			}
			wg.Wait(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(MaxTime); err != nil {
		b.Fatal(err)
	}
}
