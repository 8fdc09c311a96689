//go:build !race

package stripe_test

import (
	"fmt"
	"runtime"
	"testing"

	"lwfs/internal/netsim"
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

// A warm striped transfer allocates only what its per-object RPCs allocate:
// the plan, the payload, byte-count and error slots, the fan-out's cursor,
// wait group and worker live in a transfer record the engine recycles, and
// the fan-out's processes come off the kernel's idle list. RAID-0 and a
// 2-copy replica layout, over one column (an inline transfer) and eight (a
// fan-out).
func TestWarmTransferAllocatesOnlyItsRPCs(t *testing.T) {
	const unit = 64 << 10
	cl, lw := engineCluster(16)
	c := cl.NewClient(lw, 0)
	type row struct {
		what      string
		got, rpcs float64
	}
	var rows []row
	cl.Spawn("app", func(p *sim.Proc) {
		caps := appSetup(t, p, c)
		eng := stripe.NewEngine(c, caps, 0)
		ref, err := c.CreateObject(p, c.Server(0), caps)
		if err != nil {
			t.Fatal(err)
		}
		rpcWrite := mallocsPer(t, func() error {
			_, err := c.Write(p, ref, caps, 0, netsim.SyntheticPayload(unit))
			return err
		})
		rpcRead := mallocsPer(t, func() error {
			_, err := c.Read(p, ref, caps, 0, unit)
			return err
		})
		for _, s := range []struct {
			scheme stripe.Scheme
			copies int
		}{{stripe.Raid0, 1}, {stripe.Replica, 2}} {
			for _, cols := range []int{1, 8} {
				l := makeRedundant(t, p, c, caps, s.scheme, cols, s.copies, unit)
				size := int64(cols) * unit
				write := mallocsPer(t, func() error {
					_, err := eng.WriteAt(p, l, 0, netsim.SyntheticPayload(size))
					return err
				})
				read := mallocsPer(t, func() error {
					_, err := eng.ReadAt(p, l, 0, size)
					return err
				})
				rows = append(rows,
					row{fmt.Sprintf("%v %d-column write", s.scheme, cols), write, float64(cols*s.copies) * rpcWrite},
					row{fmt.Sprintf("%v %d-column read", s.scheme, cols), read, float64(cols) * rpcRead})
			}
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	// Half an allocation of slack: the process allocates now and then on its
	// own (a grown runtime or wall-clock sample, more often on a busy host),
	// while a transfer that allocated would cost at least one per call.
	for _, r := range rows {
		if r.got > r.rpcs+0.5 {
			t.Errorf("a warm %s allocates %.2f objects, its RPCs %.2f", r.what, r.got, r.rpcs)
		}
		t.Logf("%s: %.2f allocations", r.what, r.got)
	}
}

// mallocsPer runs op 20 times to warm up, then 200 more, and reports heap
// allocations per op over the 200.
func mallocsPer(t *testing.T, op func() error) float64 {
	t.Helper()
	const warm, n = 20, 200
	var before, after runtime.MemStats
	for i := 0; i < warm+n; i++ {
		if i == warm {
			runtime.ReadMemStats(&before)
		}
		if err := op(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n
}

// Decode parses a record in place and checks it against its canonical
// encoding on the stack: a 30-object layout costs its object list, and no
// copy of the bytes nor a second encoding.
func TestDecodeAllocatesNoEncoding(t *testing.T) {
	l := testLayout(30, 1<<20)
	l.Size = 1 << 40
	enc := l.Encode()
	if n := testing.AllocsPerRun(100, func() {
		if _, err := stripe.Decode(enc); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("Decode of a %d-byte record allocates %.0f times, want 1 (its objects)", len(enc), n)
	}
}
