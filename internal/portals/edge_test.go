package portals

import (
	"fmt"
	"testing"
	"time"

	"lwfs/internal/netsim"
	"lwfs/internal/sim"
)

func TestServerCountersAndQueue(t *testing.T) {
	r := newRig(t, 3, 1000*mb)
	srv := Serve(r.eps[2], 10, "slow", 1, func(p *sim.Proc, from netsim.NodeID, req interface{}) (interface{}, error) {
		p.Sleep(10 * time.Millisecond)
		return nil, nil
	})
	for i := 0; i < 3; i++ {
		c := NewCaller(r.eps[i%2])
		r.k.Spawn(fmt.Sprintf("c%d", i), func(p *sim.Proc) {
			c.Call(p, r.eps[2].Node(), 10, nil, 64, 64) //nolint:errcheck
		})
	}
	// Peek at the queue while the single worker is busy.
	var maxQueue int
	r.k.Spawn("observer", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			if q := srv.q.Len(); q > maxQueue {
				maxQueue = q
			}
			p.Sleep(time.Millisecond)
		}
	})
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if srv.served.Value() != 3 {
		t.Fatalf("served = %d", srv.served.Value())
	}
	if maxQueue < 1 {
		t.Fatalf("queue never built up behind the single worker")
	}
}

func TestMultipleCallersShareEndpoint(t *testing.T) {
	// Two callers on ONE endpoint (co-located client processes) must not
	// collide on reply tokens.
	r := newRig(t, 2, 1000*mb)
	Serve(r.eps[1], 10, "echo", 4, func(p *sim.Proc, from netsim.NodeID, req interface{}) (interface{}, error) {
		p.Sleep(time.Millisecond)
		return req, nil
	})
	for i := 0; i < 4; i++ {
		i := i
		c := NewCaller(r.eps[0]) // all on node 0
		r.k.Spawn(fmt.Sprintf("caller%d", i), func(p *sim.Proc) {
			for j := 0; j < 5; j++ {
				v, err := c.Call(p, r.eps[1].Node(), 10, i*100+j, 64, 64)
				if err != nil || v.(int) != i*100+j {
					t.Errorf("caller %d call %d: %v %v", i, j, v, err)
					return
				}
			}
		})
	}
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
}

func TestEndpointTokenUniqueness(t *testing.T) {
	r := newRig(t, 2, mb)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		tok := r.eps[0].NextToken()
		if seen[tok] {
			t.Fatalf("token %d repeated", tok)
		}
		seen[tok] = true
	}
}
