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
