//go:build !race

package stripe_test

import (
	"testing"

	"lwfs/internal/sim"
	"lwfs/internal/stripe"
)

// What a fan-out allocates does not depend on its window: the workers share
// one closure and one name, and their processes come off the kernel's idle
// list. (Not under the race detector, where exited processes are poisoned
// instead of recycled.)
func TestFanOutAllocationsIndependentOfWindow(t *testing.T) {
	k := sim.NewKernel()
	var narrow, wide float64
	k.Spawn("driver", func(p *sim.Proc) {
		round := func(window int) func() {
			return func() {
				if err := stripe.FanOut(p, "test", 32, window, func(wp *sim.Proc, i int) error {
					wp.Sleep(1e3)
					return nil
				}); err != nil {
					t.Error(err)
				}
			}
		}
		round(32)() // warm the kernel: 32 idle process records
		narrow = testing.AllocsPerRun(50, round(2))
		wide = testing.AllocsPerRun(50, round(32))
	})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if narrow != wide {
		t.Errorf("a fan-out of 32 allocates %.0f objects through a window of 2 and %.0f through a window of 32, want the same", narrow, wide)
	}
	t.Logf("%.0f allocations per fan-out", narrow)
}

// The hole check a writer runs on every write allocates nothing when the
// range touches no hole.
func TestMissingAllocatesNothingWithoutHoles(t *testing.T) {
	for _, l := range []stripe.Layout{holeLayout(stripe.Raid0), holeLayout(stripe.Replica, 3), holeLayout(stripe.Parity)} {
		if n := testing.AllocsPerRun(100, func() {
			if l.Missing(40, 250) != nil {
				t.Fatal("a hole where there is none")
			}
		}); n != 0 {
			t.Errorf("%v: Missing allocated %.0f times on a range without holes", l.Scheme, n)
		}
	}
}
