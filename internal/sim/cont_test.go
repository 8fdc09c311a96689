package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// The tests of continuation waits (Cont): a continuation is woken where a
// parked process would resume, so swapping one for the other moves no event.

// waitSchedule runs one schedule around a waiter that receives a message (woken
// by Send), times out on a second receive, claims a held resource (woken by
// Release), sleeps and returns it. Every other party logs around each wake-up
// — in its own code, and through At events scheduled just before and just
// after the wake — so any shift in (time, seq) order shows in the log. start
// launches the waiter at time zero, as a process or as a continuation.
func waitSchedule(t *testing.T, start func(k *Kernel, m *Mailbox, r *Resource, log func(string))) (obs []string, dispatched uint64) {
	k := NewKernel()
	m := NewMailbox(k, "m")
	r := NewResource(k, "r", 1)
	log := func(s string) { obs = append(obs, fmt.Sprintf("%v %s", k.Now(), s)) }
	around := func(who string, wake func()) {
		k.At(k.Now(), func() { log(who + ": before") })
		wake()
		k.At(k.Now(), func() { log(who + ": after") })
		log(who + ": returns")
	}
	k.Spawn("holder", func(p *Proc) {
		r.Acquire(p, 1)
		p.Sleep(5 * time.Millisecond)
		around("release", func() { r.Release(1) })
	})
	start(k, m, r, log)
	k.Spawn("sender", func(p *Proc) {
		p.Sleep(time.Millisecond)
		around("send", func() { m.Send("x") })
	})
	k.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 8; i++ {
			log("tick")
			p.Sleep(time.Millisecond)
		}
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	return obs, k.EventsDispatched()
}

// waitScript is waitSchedule's waiter as a continuation: stage says where step
// resumes, 5 once it is done. A nil log keeps it quiet.
type waitScript struct {
	c     Cont
	m     *Mailbox
	r     *Resource
	log   func(string)
	stage int
}

func (s *waitScript) note(format string, v interface{}) {
	if s.log != nil {
		s.log(fmt.Sprintf(format, v))
	}
}

func (s *waitScript) step() {
	for {
		switch s.stage {
		case 0:
			s.note("waiter: %s", "starts")
			s.stage = 1
			if !s.m.RecvCont(&s.c, 0) {
				return
			}
		case 1:
			msg, _ := s.c.Msg()
			s.note("waiter: got %v", msg)
			s.stage = 2
			if !s.m.RecvCont(&s.c, 2*time.Millisecond) {
				return
			}
		case 2:
			_, ok := s.c.Msg()
			s.note("waiter: received %v", ok)
			s.stage = 3
			if !s.r.AcquireCont(&s.c, 1) {
				return
			}
		case 3:
			s.note("waiter: %s", "acquired")
			s.stage = 4
			s.c.Sleep(time.Millisecond)
			return
		case 4:
			s.note("waiter: %s", "slept")
			s.r.Release(1)
			s.stage = 5
			return
		}
	}
}

func TestContWakesWhereAProcessResumes(t *testing.T) {
	proc, procEvents := waitSchedule(t, func(k *Kernel, m *Mailbox, r *Resource, log func(string)) {
		k.Spawn("waiter", func(p *Proc) {
			log("waiter: starts")
			log(fmt.Sprintf("waiter: got %v", m.Recv(p)))
			_, ok := m.RecvTimeout(p, 2*time.Millisecond)
			log(fmt.Sprintf("waiter: received %v", ok))
			r.Acquire(p, 1)
			log("waiter: acquired")
			p.Sleep(time.Millisecond)
			log("waiter: slept")
			r.Release(1)
		})
	})
	cont, contEvents := waitSchedule(t, func(k *Kernel, m *Mailbox, r *Resource, log func(string)) {
		s := &waitScript{m: m, r: r, log: log}
		s.c.Bind(k, s.step)
		s.c.Start()
	})
	for _, want := range []string{"1ms waiter: got x", "3ms waiter: received false", "5ms waiter: acquired", "6ms waiter: slept"} {
		found := false
		for _, o := range proc {
			found = found || o == want
		}
		if !found {
			t.Fatalf("the process schedule lacks %q: %q", want, proc)
		}
	}
	if !reflect.DeepEqual(proc, cont) {
		t.Errorf("observations differ\nprocess:      %q\ncontinuation: %q", proc, cont)
	}
	if procEvents != contEvents {
		t.Errorf("%d events dispatched with a process, %d with a continuation", procEvents, contEvents)
	}
}

// A warm continuation allocates nothing to wait: on a mailbox with and without
// a timeout, on a resource, on the clock. Its waiter record lives in the Cont
// and the timeout callback is bound once.
func TestWarmContWaitAllocatesNothing(t *testing.T) {
	k := NewKernel()
	m := NewMailbox(k, "m")
	r := NewResource(k, "r", 1)
	done := NewMailbox(k, "done")
	s := &waitScript{m: m, r: r}
	s.c.Bind(k, func() {
		if s.step(); s.stage == 5 {
			s.stage = 0
			done.Send(nil)
		}
	})
	var avg float64
	k.Spawn("driver", func(p *Proc) {
		round := func() {
			r.Acquire(p, 1)
			s.c.Start()
			p.Sleep(time.Microsecond) // the script waits for a message
			m.Send(nil)
			p.Sleep(3 * time.Millisecond) // then for a message that never comes, then for the resource
			r.Release(1)
			done.Recv(p) // after a sleep
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
		t.Fatalf("a warm round of continuation waits allocates %.1f objects, want 0", avg)
	}
}
