package sim

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The tests of process recycling (DESIGN.md §4.12): an exited process leaves
// its record and coroutine on the kernel's idle list and the next Spawn takes
// them over. Under the race detector nothing is recycled (recycle_race.go);
// the tests of what must never happen run there too.

// A fan-out round on a warm kernel — spawn four legs, run them, let them
// exit, join — allocates nothing: every record and coroutine comes back off
// the idle list.
func TestSpawnOnWarmKernelAllocatesNothing(t *testing.T) {
	if !recycleProcs {
		t.Skip("exited records are poisoned, not recycled, under the race detector")
	}
	k := NewKernel()
	done := NewMailbox(k, "done")
	leg := func(p *Proc) { done.Send(nil) }
	var avg float64
	k.Spawn("driver", func(p *Proc) {
		round := func() {
			for i := 0; i < 4; i++ {
				k.Spawn("leg", leg)
			}
			for i := 0; i < 4; i++ {
				done.Recv(p)
			}
		}
		for i := 0; i < 8; i++ {
			round()
		}
		avg = testing.AllocsPerRun(200, round)
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if avg != 0 {
		t.Fatalf("a warm spawn/exit round allocates %.1f objects, want 0", avg)
	}
}

// A resume addressed to an incarnation that has exited must not wake the
// record's next occupant. Process a is resumed twice; between the two
// dispatches it exits and b is spawned onto its record. Dispatching the
// second resume to b would pass for b's start and corrupt the blocked count.
func TestStaleResumeDoesNotWakeTheNextOccupant(t *testing.T) {
	k := NewKernel()
	var pa, pb *Proc
	ranB := 0
	pa = k.Spawn("a", func(p *Proc) {
		p.unpark()
		k.After(0, func() {
			pb = k.Spawn("b", func(p *Proc) {
				ranB++
				p.Sleep(time.Millisecond) // parks and resumes under its own incarnation
				ranB++
			})
		})
		p.unpark()
		p.park()
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if recycleProcs && pb != pa {
		t.Error("b did not take over a's record: the test exercises nothing")
	}
	if ranB != 2 || k.blocked != 0 {
		t.Errorf("b ran %d of its 2 steps, %d processes counted blocked; want 2 and 0", ranB, k.blocked)
	}
	k.Shutdown()
}

// A callback scheduled by an exiting process spawns onto the very record that
// process just left: the start event resumes the record's idle coroutine, the
// new occupant runs under its own name and parks and wakes there, and
// Shutdown leaves no goroutine behind.
func TestRespawnOntoTheExitingGoroutinesOwnRecord(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel()
	var first, second *Proc
	ran := false
	first = k.Spawn("first", func(p *Proc) {
		k.After(0, func() {
			second = k.Spawn("second", func(p *Proc) {
				p.Sleep(time.Millisecond)
				ran = p.name == "second"
			})
		})
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if recycleProcs && second != first {
		t.Error("the second process did not take over the first's record")
	}
	if !ran {
		t.Error("the second process did not run to completion under its own name")
	}
	k.Shutdown()
	if n, ok := goroutinesSettleAt(before); !ok {
		t.Errorf("%d goroutines after Shutdown, want %d", n, before)
	}
}

// A process that panics, or leaves through runtime.Goexit, has no coroutine
// left to lend: its record is not recycled. Run reports the panic. A Goexit
// is passed on to the goroutine that called Run, which ends there — as
// t.FailNow inside a test's process body should.
func TestAProcessThatDoesNotReturnIsNotRecycled(t *testing.T) {
	k := NewKernel()
	k.Spawn("bad", func(p *Proc) { p.Sleep(time.Millisecond); panic("boom") })
	err := k.Run(MaxTime)
	if err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), `"bad"`) {
		t.Fatalf("Run: %v, want the panic of process bad", err)
	}
	if len(k.idle) != 0 {
		t.Errorf("%d records on the idle list after a panic, want none", len(k.idle))
	}
	k.Shutdown()

	k = NewKernel()
	k.Spawn("quitter", func(p *Proc) { p.Sleep(time.Millisecond); runtime.Goexit() })
	var deferred, returned bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { deferred = true }()
		k.Run(MaxTime)
		returned = true
	}()
	<-done
	if !deferred || returned {
		t.Errorf("Run's goroutine: deferred calls ran %v, Run returned %v; want it ended by Goexit", deferred, returned)
	}
	if len(k.idle) != 0 || len(k.procs) != 0 {
		t.Errorf("%d records idle and %d live after a Goexit, want none", len(k.idle), len(k.procs))
	}
	k.Shutdown()
}

// A deadlock report names the processes blocked now, not earlier occupants of
// their records.
func TestDeadlockNamesBlockedProcessesAfterReuse(t *testing.T) {
	k := NewKernel()
	never := NewMailbox(k, "never")
	k.Spawn("driver", func(p *Proc) {
		for i := 0; i < 8; i++ {
			k.Spawn("short", func(p *Proc) {})
		}
		p.Sleep(time.Millisecond)
		for _, name := range []string{"x", "y", "z"} {
			k.Spawn(name, func(p *Proc) { never.Recv(p) })
		}
	})
	var dl *DeadlockError
	if err := k.Run(MaxTime); !errors.As(err, &dl) {
		t.Fatalf("Run: %v, want a deadlock", err)
	}
	if want := []string{"x", "y", "z"}; !reflect.DeepEqual(dl.Blocked, want) {
		t.Errorf("blocked %v, want %v", dl.Blocked, want)
	}
	k.Shutdown()
}

// However many processes exit at once, at most maxIdleProcs records wait for
// reuse; the rest die with their coroutines.
func TestIdleListIsBounded(t *testing.T) {
	if !recycleProcs {
		t.Skip("nothing is recycled under the race detector")
	}
	before := runtime.NumGoroutine()
	k := NewKernel()
	for i := 0; i < 2*maxIdleProcs; i++ {
		k.Spawn("short", func(p *Proc) { p.Sleep(time.Millisecond) })
	}
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if len(k.idle) != maxIdleProcs {
		t.Errorf("%d records idle, want %d", len(k.idle), maxIdleProcs)
	}
	if n, ok := goroutinesSettleAt(before + maxIdleProcs); !ok {
		t.Errorf("%d goroutines with %d idle records, want %d", n, maxIdleProcs, before+maxIdleProcs)
	}
	k.Shutdown()
	if n, ok := goroutinesSettleAt(before); !ok {
		t.Errorf("%d goroutines after Shutdown, want %d", n, before)
	}
}

// A dead kernel keeps nothing that is handed to it: events and processes are
// counted and dropped.
func TestDeadKernelKeepsNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel()
	k.Spawn("p", func(p *Proc) { p.Sleep(time.Millisecond) }) // leaves an idle record
	k.SpawnDaemon("parked", func(p *Proc) {
		// Runs during Shutdown, with the idle record still there to take.
		defer k.Spawn("heir", func(p *Proc) { t.Error("a process spawned by a retiring one ran") })
		NewMailbox(k, "never").Recv(p)
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if n, ok := goroutinesSettleAt(before); !ok {
		t.Errorf("%d goroutines after Shutdown, want %d", n, before)
	}
	scheduled := k.EventsScheduled()
	m := NewMailbox(k, "m")
	for i := 0; i < 1000; i++ {
		k.After(time.Duration(i)*time.Millisecond, func() { t.Error("an event scheduled on a dead kernel fired") })
		k.SpawnDaemon("ghost", func(p *Proc) { t.Error("a process spawned on a dead kernel ran") })
		k.After(time.Second, func() { m.Send(i) })
	}
	if h := k.scheduleCancelable(k.now.Add(time.Second), func() {}); h.id >= 0 {
		t.Errorf("a cancelable event on a dead kernel got slot %d", h.id)
	}
	if got := k.EventsScheduled() - scheduled; got != 3001 {
		t.Errorf("%d events counted, want 3001", got)
	}
	if k.queueLen() != 0 || len(k.procs) != 0 || len(k.idle) != 0 || k.ring != nil || k.slots != nil || k.heap != nil {
		t.Errorf("a dead kernel holds %d events, %d processes, %d idle records, ring %d, arena %d, heap %d; want nothing",
			k.queueLen(), len(k.procs), len(k.idle), len(k.ring), len(k.slots), len(k.heap))
	}
	if err := k.Run(MaxTime); !errors.Is(err, ErrShutdown) {
		t.Errorf("Run on a dead kernel: %v, want ErrShutdown", err)
	}
}
