package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestEmptyRun(t *testing.T) {
	k := NewKernel()
	if err := k.Run(MaxTime); err != nil {
		t.Fatalf("empty run: %v", err)
	}
	if k.Now() != 0 {
		t.Fatalf("time advanced with no events: %v", k.Now())
	}
}

func TestEventOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.At(30, func() { got = append(got, 3) })
	k.At(10, func() { got = append(got, 1) })
	k.At(20, func() { got = append(got, 2) })
	k.At(10, func() { got = append(got, 11) }) // same instant: submission order
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 11, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if k.Now() != 30 {
		t.Fatalf("final time = %v, want 30", k.Now())
	}
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	k := NewKernel()
	var at1, at2 Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		at1 = p.Now()
		p.Sleep(10 * time.Millisecond)
		at2 = p.Now()
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if at1 != Time(5*time.Millisecond) || at2 != Time(15*time.Millisecond) {
		t.Fatalf("sleep times: %v %v", at1, at2)
	}
}

func TestSpawnAtStartsLater(t *testing.T) {
	k := NewKernel()
	var started Time
	k.SpawnAt(Time(time.Second), "late", func(p *Proc) { started = p.Now() })
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if started != Time(time.Second) {
		t.Fatalf("started at %v", started)
	}
}

func TestRunLimitPausesAndResumes(t *testing.T) {
	k := NewKernel()
	var done bool
	k.Spawn("p", func(p *Proc) {
		p.Sleep(time.Hour)
		done = true
	})
	if err := k.Run(Time(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatal("ran past limit")
	}
	if k.Now() != Time(time.Minute) {
		t.Fatalf("paused at %v", k.Now())
	}
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if !done || k.Now() != Time(time.Hour) {
		t.Fatalf("done=%v now=%v", done, k.Now())
	}
}

func TestPanicPropagates(t *testing.T) {
	k := NewKernel()
	k.Spawn("boom", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("kaput")
	})
	err := k.Run(MaxTime)
	if err == nil {
		t.Fatal("expected error from panicking process")
	}
}

// The dispatch loop runs only on the goroutine that called Run: a callback
// runs there, and no parked process's stack carries the loop's frames
// (DESIGN.md §4.12, stack size).
func TestNoDispatchLoopOnAParkedStack(t *testing.T) {
	k := NewKernel()
	never := NewMailbox(k, "never")
	for i := 0; i < 3; i++ {
		k.SpawnDaemon("parked", func(p *Proc) { never.Recv(p) })
	}
	k.Spawn("sleeper", func(p *Proc) { p.Sleep(time.Second) })
	var dump string
	k.After(time.Millisecond, func() {
		// Grow the buffer until the dump fits: goroutines that earlier tests
		// in this binary left parked can fill a fixed one and cut ours off.
		for buf := make([]byte, 1<<20); ; buf = make([]byte, 2*len(buf)) {
			if n := runtime.Stack(buf, true); n < len(buf) {
				dump = string(buf[:n])
				return
			}
		}
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	// runtime.Stack lists the calling goroutine first.
	stacks := strings.Split(dump, "\n\n")
	if self := stacks[0]; !strings.Contains(self, "(*Kernel).Run(") || !strings.Contains(self, "(*Kernel).loop") {
		t.Fatalf("the callback did not run on Run's goroutine:\n%s", self)
	}
	parked := 0
	for _, s := range stacks[1:] {
		if strings.Contains(s, "(*Proc).park") && strings.Contains(s, "TestNoDispatchLoopOnAParkedStack") {
			parked++ // one of ours, not a process an earlier test left parked
		}
		if strings.Contains(s, "(*Kernel).loop") {
			t.Errorf("the dispatch loop on another goroutine's stack:\n%s", s)
		}
	}
	if parked != 4 {
		t.Errorf("%d parked process stacks, want 4", parked)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel()
	m := NewMailbox(k, "never")
	k.Spawn("waiter", func(p *Proc) { m.Recv(p) })
	err := k.Run(MaxTime)
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0] != "waiter" {
		t.Fatalf("blocked = %v", dl.Blocked)
	}
}

func TestMailboxFIFO(t *testing.T) {
	k := NewKernel()
	m := NewMailbox(k, "m")
	var got []int
	k.Spawn("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, m.Recv(p).(int))
		}
	})
	k.Spawn("send", func(p *Proc) {
		m.Send(1)
		p.Sleep(time.Millisecond)
		m.Send(2)
		m.Send(3)
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("got %v", got)
	}
}

func TestMailboxRecvTimeout(t *testing.T) {
	k := NewKernel()
	m := NewMailbox(k, "m")
	var timedOut, gotMsg bool
	k.Spawn("recv", func(p *Proc) {
		_, ok := m.RecvTimeout(p, time.Millisecond)
		timedOut = !ok
		msg, ok := m.RecvTimeout(p, time.Second)
		gotMsg = ok && msg.(string) == "hello"
	})
	k.Spawn("send", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		m.Send("hello")
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if !timedOut || !gotMsg {
		t.Fatalf("timedOut=%v gotMsg=%v", timedOut, gotMsg)
	}
}

func TestMailboxTimeoutRace(t *testing.T) {
	// A send at exactly the timeout instant: either outcome is legal, but
	// the message must not be lost or double-delivered.
	k := NewKernel()
	m := NewMailbox(k, "m")
	delivered := 0
	k.Spawn("recv", func(p *Proc) {
		if _, ok := m.RecvTimeout(p, time.Millisecond); ok {
			delivered++
		}
	})
	k.Spawn("send", func(p *Proc) {
		p.Sleep(time.Millisecond)
		m.Send("x")
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if delivered+m.Len() != 1 {
		t.Fatalf("delivered=%d queued=%d", delivered, m.Len())
	}
}

func TestTryRecv(t *testing.T) {
	k := NewKernel()
	m := NewMailbox(k, "m")
	if _, ok := m.TryRecv(); ok {
		t.Fatal("TryRecv on empty mailbox succeeded")
	}
	m.Send(7)
	v, ok := m.TryRecv()
	if !ok || v.(int) != 7 {
		t.Fatalf("TryRecv = %v %v", v, ok)
	}
}

func TestResourceMutualExclusion(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "disk", 1)
	inside := 0
	maxInside := 0
	for i := 0; i < 5; i++ {
		k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			r.Acquire(p, 1)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Sleep(time.Millisecond)
			inside--
			r.Release(1)
		})
	}
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Fatalf("max concurrent holders = %d", maxInside)
	}
	if k.Now() != Time(5*time.Millisecond) {
		t.Fatalf("serialized time = %v", k.Now())
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "r", 1)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		k.SpawnAt(Time(i), fmt.Sprintf("w%d", i), func(p *Proc) {
			r.Acquire(p, 1)
			order = append(order, i)
			p.Sleep(time.Millisecond)
			r.Release(1)
		})
	}
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3}) {
		t.Fatalf("order = %v", order)
	}
}

func TestResourceCounted(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "r", 3)
	maxHeld := int64(0)
	for i := 0; i < 6; i++ {
		k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			r.Acquire(p, 1)
			if h := r.Capacity() - r.Available(); h > maxHeld {
				maxHeld = h
			}
			p.Sleep(time.Millisecond)
			r.Release(1)
		})
	}
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if maxHeld != 3 {
		t.Fatalf("max held = %d, want 3", maxHeld)
	}
	if k.Now() != Time(2*time.Millisecond) {
		t.Fatalf("elapsed %v, want 2ms", k.Now())
	}
}

func TestWaitGroup(t *testing.T) {
	k := NewKernel()
	var wg WaitGroup
	var finished Time
	n := 5
	wg.Add(n)
	for i := 0; i < n; i++ {
		d := time.Duration(i+1) * time.Millisecond
		k.Spawn(fmt.Sprintf("t%d", i), func(p *Proc) {
			p.Sleep(d)
			wg.Done()
		})
	}
	k.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		finished = p.Now()
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if finished != Time(5*time.Millisecond) {
		t.Fatalf("waiter finished at %v", finished)
	}
}

func TestBarrier(t *testing.T) {
	k := NewKernel()
	b := NewBarrier(3)
	var releases []Time
	for i := 0; i < 3; i++ {
		d := time.Duration(i) * time.Millisecond
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(d)
			b.Await(p)
			releases = append(releases, p.Now())
		})
	}
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	for _, r := range releases {
		if r != Time(2*time.Millisecond) {
			t.Fatalf("releases = %v", releases)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	k := NewKernel()
	b := NewBarrier(2)
	rounds := 0
	for i := 0; i < 2; i++ {
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for r := 0; r < 3; r++ {
				p.Sleep(time.Millisecond)
				b.Await(p)
				if p.name == "p0" {
					rounds++
				}
			}
		})
	}
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if rounds != 3 {
		t.Fatalf("rounds = %d", rounds)
	}
}

func TestFuture(t *testing.T) {
	k := NewKernel()
	f := NewFuture()
	var got interface{}
	k.Spawn("w", func(p *Proc) {
		v, err := f.Wait(p)
		if err != nil {
			t.Errorf("future err: %v", err)
		}
		got = v
	})
	k.Spawn("c", func(p *Proc) {
		p.Sleep(time.Millisecond)
		f.Complete(42, nil)
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("got %v", got)
	}
}

func TestFutureCompletedBeforeWait(t *testing.T) {
	k := NewKernel()
	f := NewFuture()
	f.Complete("v", nil)
	var got interface{}
	k.Spawn("w", func(p *Proc) { got, _ = f.Wait(p) })
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if got != "v" {
		t.Fatalf("got %v", got)
	}
}

func TestFIFOServerSerializes(t *testing.T) {
	k := NewKernel()
	s := NewFIFOServer(k, "link")
	var finishes []Time
	k.Spawn("a", func(p *Proc) {
		s.Wait(p, 10*time.Millisecond)
		finishes = append(finishes, p.Now())
	})
	k.Spawn("b", func(p *Proc) {
		s.Wait(p, 10*time.Millisecond)
		finishes = append(finishes, p.Now())
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	want := []Time{Time(10 * time.Millisecond), Time(20 * time.Millisecond)}
	if !reflect.DeepEqual(finishes, want) {
		t.Fatalf("finishes = %v", finishes)
	}
}

func TestFIFOServerIdleGap(t *testing.T) {
	k := NewKernel()
	s := NewFIFOServer(k, "link")
	var second Time
	k.Spawn("a", func(p *Proc) {
		s.Wait(p, time.Millisecond)
		p.Sleep(10 * time.Millisecond) // server idles
		s.Wait(p, time.Millisecond)
		second = p.Now()
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if second != Time(12*time.Millisecond) {
		t.Fatalf("second = %v", second)
	}
	if s.BusyTime() != 2*time.Millisecond {
		t.Fatalf("busy = %v", s.BusyTime())
	}
}

func TestFIFOServerScheduleCallback(t *testing.T) {
	k := NewKernel()
	s := NewFIFOServer(k, "x")
	var at Time
	s.Schedule(7*time.Millisecond, func() { at = k.Now() })
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if at != Time(7*time.Millisecond) {
		t.Fatalf("at = %v", at)
	}
}

func TestRate(t *testing.T) {
	if d := Rate(100<<20, 100*1e6); d != time.Duration(float64(100<<20)/100e6*1e9) {
		t.Fatalf("Rate = %v", d)
	}
	if d := Rate(0, 1e6); d != 0 {
		t.Fatalf("Rate(0) = %v", d)
	}
}

// Property: the kernel is deterministic — the same randomized workload run
// twice produces identical event traces and identical final virtual times.
func TestDeterminismProperty(t *testing.T) {
	run := func(seed int64) (Time, string) {
		k := NewKernel()
		rng := rand.New(rand.NewSource(seed))
		r := NewResource(k, "r", 2)
		m := NewMailbox(k, "m")
		trace := ""
		n := 8
		for i := 0; i < n; i++ {
			i := i
			d := time.Duration(rng.Intn(1000)) * time.Microsecond
			k.SpawnAt(Time(rng.Intn(100)), fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(d)
				r.Acquire(p, 1)
				p.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
				r.Release(1)
				m.Send(i)
				trace += fmt.Sprintf("%d@%v;", i, p.Now())
			})
		}
		k.Spawn("drain", func(p *Proc) {
			for i := 0; i < n; i++ {
				v := m.Recv(p).(int)
				trace += fmt.Sprintf("recv%d;", v)
			}
		})
		if err := k.Run(MaxTime); err != nil {
			t.Fatal(err)
		}
		return k.Now(), trace
	}
	prop := func(seed int64) bool {
		t1, tr1 := run(seed)
		t2, tr2 := run(seed)
		return t1 == t2 && tr1 == tr2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: a FIFO server's completion times are non-decreasing and its busy
// time equals the sum of service times.
func TestFIFOServerProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		k := NewKernel()
		s := NewFIFOServer(k, "s")
		var total time.Duration
		last := Time(-1)
		monotone := true
		for _, r := range raw {
			svc := time.Duration(r) * time.Microsecond
			total += svc
			fin := s.Schedule(svc, nil)
			if fin < last {
				monotone = false
			}
			last = fin
		}
		if err := k.Run(MaxTime); err != nil {
			return false
		}
		return monotone && s.BusyTime() == total
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: counted resources never over-commit, regardless of the
// acquire/release schedule.
func TestResourceNeverOvercommits(t *testing.T) {
	prop := func(seed int64, capRaw uint8) bool {
		capacity := int64(capRaw%5) + 1
		k := NewKernel()
		r := NewResource(k, "r", capacity)
		rng := rand.New(rand.NewSource(seed))
		held := int64(0)
		ok := true
		for i := 0; i < 12; i++ {
			n := int64(rng.Intn(int(capacity))) + 1
			hold := time.Duration(rng.Intn(300)) * time.Microsecond
			k.SpawnAt(Time(rng.Intn(50)), fmt.Sprintf("p%d", i), func(p *Proc) {
				r.Acquire(p, n)
				held += n
				if held > capacity {
					ok = false
				}
				p.Sleep(hold)
				held -= n
				r.Release(n)
			})
		}
		if err := k.Run(MaxTime); err != nil {
			return false
		}
		return ok && r.Available() == capacity
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
