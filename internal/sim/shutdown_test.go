package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// goroutinesSettleAt waits for the goroutines of stopped coroutines to finish
// dying, then reports whether the count is back at want (or below: an earlier
// test's goroutines may have been dying when want was taken).
func goroutinesSettleAt(want int) (int, bool) {
	var n int
	for i := 0; i < 100; i++ {
		if n = runtime.NumGoroutine(); n <= want {
			return n, true
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	return n, false
}

// A kernel whose Run hit its limit holds every kind of process: parked on a
// mailbox forever, asleep on a timer beyond the limit, finished (a thousand
// of them, so the idle list is full of coroutines waiting for reuse), and not
// yet started. Shutdown retires the ones with coroutines, runs their defers
// and leaves nothing behind.
func TestShutdownRetiresEveryProcess(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel()
	never := NewMailbox(k, "never")
	var unwound []string
	for _, name := range []string{"d0", "d1", "d2"} {
		name := name
		k.SpawnDaemon(name, func(p *Proc) {
			defer func() { unwound = append(unwound, name) }()
			never.Recv(p)
			t.Errorf("%s resumed after its park", name)
		})
	}
	k.Spawn("sleeper", func(p *Proc) {
		defer func() { unwound = append(unwound, "sleeper") }()
		p.Sleep(time.Hour)
		t.Error("sleeper woke on a dead kernel")
	})
	for i := 0; i < 1000; i++ {
		k.Spawn("finished", func(p *Proc) { p.Sleep(time.Millisecond) })
	}
	started := false
	k.SpawnAt(Time(time.Minute), "late", func(p *Proc) { started = true })

	if err := k.Run(Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if len(unwound) != 4 {
		t.Errorf("deferred calls ran for %v, want all four parked processes", unwound)
	}
	if started {
		t.Error("a process that had not started ran at Shutdown")
	}
	if n, ok := goroutinesSettleAt(before); !ok {
		t.Errorf("%d goroutines after Shutdown, want the %d from before the kernel", n, before)
	}

	// What a dead kernel guarantees.
	if k.Now() != Time(time.Second) || k.EventsDispatched() == 0 {
		t.Errorf("clock %v and %d dispatched events did not survive Shutdown", k.Now(), k.EventsDispatched())
	}
	if k.queueLen() != 0 {
		t.Errorf("%d events still pending", k.queueLen())
	}
	if err := k.Run(MaxTime); !errors.Is(err, ErrShutdown) {
		t.Errorf("Run on a dead kernel: %v, want ErrShutdown", err)
	}
	k.Spawn("ghost", func(p *Proc) { t.Error("a process spawned on a dead kernel ran") })
	k.After(time.Second, func() { t.Error("an event scheduled on a dead kernel fired") })
	k.Shutdown() // twice is once
	if err := k.Run(MaxTime); !errors.Is(err, ErrShutdown) {
		t.Errorf("Run after a second Shutdown: %v, want ErrShutdown", err)
	}
}

// Deferred calls of a retiring process may use the kernel: waking others is
// harmless, and one that tries to block ends the process there instead of
// hanging Shutdown.
func TestShutdownDeferredCallsMayUseTheKernel(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel()
	never := NewMailbox(k, "never")
	res := NewResource(k, "disk", 1)
	var wg WaitGroup
	wg.Add(1)
	reached := false
	k.SpawnDaemon("holder", func(p *Proc) {
		defer wg.Done()
		defer res.Release(1)
		defer func() {
			defer func() { reached = true }()
			p.Sleep(time.Second) // blocks: the process ends here
			t.Error("a deferred Sleep returned on a dead kernel")
		}()
		res.Acquire(p, 1)
		never.Recv(p)
	})
	k.SpawnDaemon("waiter", func(p *Proc) { wg.Wait(p) })
	k.SpawnDaemon("queued", func(p *Proc) { res.Acquire(p, 1) })
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	// The released unit goes to the queued acquirer, dead kernel or not.
	if !reached || len(res.waiters) != 0 {
		t.Errorf("holder's deferred calls did not all run (reached %v, %d still queued for its unit)", reached, len(res.waiters))
	}
	if n, ok := goroutinesSettleAt(before); !ok {
		t.Errorf("%d goroutines after Shutdown, want %d", n, before)
	}
}

// A parked process retires by unwinding from its park with a private panic.
// One whose deferred call recovers that panic is retired all the same: its
// deferred calls run once, nothing after its park runs, and no goroutine is
// left behind.
func TestShutdownRetiresAProcessThatRecovers(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel()
	never := NewMailbox(k, "never")
	deferred := 0
	var recovered interface{}
	k.SpawnDaemon("recoverer", func(p *Proc) {
		defer func() {
			recovered = recover()
			deferred++
		}()
		never.Recv(p)
		t.Error("recoverer resumed after its park")
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if deferred != 1 || recovered != errRetired {
		t.Errorf("deferred call ran %d times and recovered %v, want once and the retirement", deferred, recovered)
	}
	if len(k.procs) != 0 || len(k.idle) != 0 {
		t.Errorf("%d live and %d idle records after Shutdown, want none", len(k.procs), len(k.idle))
	}
	if n, ok := goroutinesSettleAt(before); !ok {
		t.Errorf("%d goroutines after Shutdown, want %d", n, before)
	}
}

// A failed simulation is shut down like any other, whether a process or a
// callback failed it.
func TestShutdownAfterFailure(t *testing.T) {
	for _, tc := range []struct {
		name string
		fail func(k *Kernel)
	}{
		{"process panic", func(k *Kernel) {
			k.Spawn("bad", func(p *Proc) { p.Sleep(time.Millisecond); panic("boom") })
		}},
		{"callback panic on a parked process's goroutine", func(k *Kernel) {
			k.After(time.Millisecond, func() { panic("boom") })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			k := NewKernel()
			never := NewMailbox(k, "never")
			for i := 0; i < 3; i++ {
				k.SpawnDaemon("parked", func(p *Proc) { never.Recv(p) })
			}
			tc.fail(k)
			err := k.Run(MaxTime)
			if err == nil || !strings.Contains(err.Error(), "boom") {
				t.Fatalf("Run: %v, want the panic", err)
			}
			k.Shutdown()
			if n, ok := goroutinesSettleAt(before); !ok {
				t.Errorf("%d goroutines after Shutdown, want %d", n, before)
			}
		})
	}
}

func TestMailboxOnBacklog(t *testing.T) {
	k := NewKernel()
	m := NewMailbox(k, "work")
	var got []int
	receivers := 0
	m.OnBacklog(func() {
		receivers++
		k.SpawnDaemon("receiver", func(p *Proc) {
			for {
				got = append(got, m.Recv(p).(int))
				p.Sleep(time.Millisecond)
			}
		})
	})
	k.Spawn("sender", func(p *Proc) {
		m.Send(1) // nobody waiting: backlog
		m.Send(2) // the first receiver has not started yet: backlog again
		p.Sleep(10 * time.Millisecond)
		m.Send(3) // both receivers idle: handed over, no backlog
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if receivers != 2 || len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("backlog fired %d times, received %v; want 2 and [1 2 3]", receivers, got)
	}
}
