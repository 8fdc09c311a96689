package portals

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"lwfs/internal/netsim"
	"lwfs/internal/sim"
)

// fifoDispatcher is the plainest Dispatcher: admit everything, serve in
// arrival order.
type fifoDispatcher struct{ q []Delivery }

func (d *fifoDispatcher) Submit(del Delivery) error { d.q = append(d.q, del); return nil }
func (d *fifoDispatcher) Len() int                  { return len(d.q) }
func (d *fifoDispatcher) Clear() int {
	for _, del := range d.q {
		del.Discard()
	}
	n := len(d.q)
	d.q = nil
	return n
}
func (d *fifoDispatcher) Next(*sim.Proc) Delivery {
	if len(d.q) == 0 {
		return Delivery{}
	}
	del := d.q[0]
	d.q = d.q[:copy(d.q, d.q[1:])] // shift down: the queue's array is reused, not regrown
	return del
}

// bothPaths runs a thread-rule test on the FIFO mailbox path and behind a
// dispatcher: the start rule is one rule.
func bothPaths(t *testing.T, test func(t *testing.T, install func(*Server))) {
	t.Run("mailbox", func(t *testing.T) { test(t, func(*Server) {}) })
	t.Run("dispatcher", func(t *testing.T) { test(t, func(s *Server) { s.SetDispatcher(&fifoDispatcher{}) }) })
}

// slowServer serves 10 ms requests at (eps[0], 10) with the given threads.
func slowServer(r *rig, threads int, install func(*Server)) *Server {
	srv := Serve(r.eps[0], 10, "slow", threads, func(p *sim.Proc, from netsim.NodeID, req interface{}) (interface{}, error) {
		p.Sleep(10 * time.Millisecond)
		return nil, nil
	})
	install(srv)
	return srv
}

// callFrom issues one call from eps[i] at instant at and returns where its
// completion time will be written.
func callFrom(t *testing.T, r *rig, i int, at time.Duration) *sim.Time {
	done := new(sim.Time)
	c := NewCaller(r.eps[i])
	r.k.SpawnAt(sim.Time(at), fmt.Sprintf("c%d", i), func(p *sim.Proc) {
		if _, err := c.Call(p, r.eps[0].Node(), 10, nil, 64, 64); err != nil {
			t.Errorf("call from n%d: %v", i, err)
		}
		*done = p.Now()
	})
	return done
}

func TestIdleServerOwnsNoGoroutine(t *testing.T) {
	bothPaths(t, func(t *testing.T, install func(*Server)) {
		before := runtime.NumGoroutine()
		r := newRig(t, 1, 100*mb)
		srv := slowServer(r, 8, install)
		if err := r.k.Run(sim.MaxTime); err != nil {
			t.Fatal(err)
		}
		if srv.started != 0 {
			t.Errorf("idle server started %d workers, want none", srv.started)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("idle server left %d goroutines running, want the %d from before it", n, before)
		}
	})
}

// k simultaneous requests start min(k, threads) workers, and those requests
// really overlap; a server with every thread busy queues the rest.
func TestWorkersStartOnDemand(t *testing.T) {
	bothPaths(t, func(t *testing.T, install func(*Server)) {
		for _, tc := range []struct{ k, threads, started int }{
			{1, 4, 1}, {2, 4, 2}, {4, 4, 4}, {6, 4, 4}, {3, 1, 1},
		} {
			r := newRig(t, 1+tc.k, 1000*mb)
			srv := slowServer(r, tc.threads, install)
			var done []*sim.Time
			for i := 1; i <= tc.k; i++ {
				done = append(done, callFrom(t, r, i, 0))
			}
			if err := r.k.Run(sim.MaxTime); err != nil {
				t.Fatal(err)
			}
			r.k.Shutdown()
			if srv.started != tc.started {
				t.Errorf("%d requests on %d threads started %d workers, want %d", tc.k, tc.threads, srv.started, tc.started)
			}
			// Request i (arrival order) waits for ⌊i/threads⌋ service times
			// before its own.
			for i, d := range done {
				rounds := time.Duration(i/tc.threads + 1)
				if got := d.Duration(); got < rounds*10*time.Millisecond || got >= (rounds*10+1)*time.Millisecond {
					t.Errorf("%d requests on %d threads: request %d done at %v, want round %d", tc.k, tc.threads, i, got, rounds)
				}
			}
		}
	})
}

// A second request to a warm server reuses its idle worker: no process — so
// no goroutine — is started, however many requests follow one another. The
// server's own count of workers is the assertion; the process-wide
// runtime.NumGoroutine also sees other tests' goroutines still exiting.
func TestWarmServerStartsNothing(t *testing.T) {
	bothPaths(t, func(t *testing.T, install func(*Server)) {
		r := newRig(t, 2, 1000*mb)
		srv := slowServer(r, 4, install)
		defer r.k.Shutdown()
		callFrom(t, r, 1, 0)
		if err := r.k.Run(sim.MaxTime); err != nil {
			t.Fatal(err)
		}
		if srv.started != 1 {
			t.Fatalf("the first request started %d workers, want 1", srv.started)
		}
		for i := 1; i <= 10; i++ {
			callFrom(t, r, 1, time.Duration(i)*20*time.Millisecond)
		}
		if err := r.k.Run(sim.MaxTime); err != nil {
			t.Fatal(err)
		}
		if srv.started != 1 {
			t.Errorf("11 requests one after another started %d workers, want 1", srv.started)
		}
		if got := srv.served.Value(); got != 11 {
			t.Errorf("served %d, want 11", got)
		}
	})
}

// A crash discards what is queued and a restarted server serves again, with
// the workers it already had: SetDown neither kills nor adds threads.
func TestSetDownKeepsStartedWorkers(t *testing.T) {
	bothPaths(t, func(t *testing.T, install func(*Server)) {
		r := newRig(t, 4, 1000*mb)
		srv := slowServer(r, 1, install)
		defer r.k.Shutdown()
		// Three requests at t=0 on one thread: one in service, two queued
		// when the server crashes at 5 ms.
		c := NewCaller(r.eps[1])
		var errs [3]error
		for i := range errs {
			i := i
			r.k.Spawn(fmt.Sprintf("c%d", i), func(p *sim.Proc) {
				_, errs[i] = callTimeout(c, p, r.eps[0].Node(), 10, nil, 50*time.Millisecond)
			})
		}
		r.k.After(5*time.Millisecond, func() { srv.SetDown(true) })
		r.k.After(60*time.Millisecond, func() { srv.SetDown(false) })
		after := callFrom(t, r, 2, 70*time.Millisecond)
		if err := r.k.Run(sim.MaxTime); err != nil {
			t.Fatal(err)
		}
		for i, err := range errs {
			if !errors.Is(err, ErrRPCTimeout) {
				t.Errorf("request %d across the crash: %v, want a timeout", i, err)
			}
		}
		if got := srv.discarded.Value(); got != 2 {
			t.Errorf("discarded %d queued requests, want 2", got)
		}
		if srv.q.Len() != 0 || srv.work.Len() != 0 {
			t.Errorf("crash left %d requests and %d work tokens queued", srv.q.Len(), srv.work.Len())
		}
		if got := after.Duration(); got < 80*time.Millisecond || got >= 81*time.Millisecond {
			t.Errorf("request after restart done at %v, want 10 ms after 70 ms", got)
		}
		if srv.started != 1 {
			t.Errorf("started %d workers, want 1", srv.started)
		}
	})
}
