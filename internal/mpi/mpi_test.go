package mpi_test

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"lwfs/internal/mpi"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
)

// rig builds n rank endpoints over m nodes (ranks share nodes round-robin,
// like 64 processes on 31 compute nodes).
type rig struct {
	k    *sim.Kernel
	comm *mpi.Comm
}

func newRig(nRanks, nNodes int) *rig {
	k := sim.NewKernel()
	net := netsim.New(k, 10*time.Microsecond)
	cfg := netsim.Config{EgressBW: 230 << 20, IngressBW: 230 << 20}
	nodeEps := make([]*portals.Endpoint, nNodes)
	for i := range nodeEps {
		nodeEps[i] = portals.NewEndpoint(net, net.AddNode(fmt.Sprintf("n%d", i), cfg))
	}
	eps := make([]*portals.Endpoint, nRanks)
	for i := range eps {
		eps[i] = nodeEps[i%nNodes]
	}
	return &rig{k: k, comm: mpi.New(eps)}
}

// spawnAll runs fn for every rank and drains the kernel.
func (r *rig) spawnAll(t *testing.T, fn func(p *sim.Proc, rank *mpi.Rank)) {
	t.Helper()
	for i := 0; i < r.comm.Size(); i++ {
		rank := r.comm.Rank(i)
		r.k.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) { fn(p, rank) })
	}
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
}

func TestPointToPointWithTags(t *testing.T) {
	r := newRig(2, 2)
	r.spawnAll(t, func(p *sim.Proc, rank *mpi.Rank) {
		switch rank.ID() {
		case 0:
			// Send out of tag order; receiver picks by tag.
			rank.Send(1, 7, "seven", 64)
			rank.Send(1, 5, "five", 64)
		case 1:
			five, from := rank.Recv(p, 0, 5)
			if five.(string) != "five" || from != 0 {
				t.Errorf("tag 5: %v from %d", five, from)
			}
			seven, _ := rank.Recv(p, 0, 7)
			if seven.(string) != "seven" {
				t.Errorf("tag 7: %v", seven)
			}
		}
	})
}

func TestRecvAny(t *testing.T) {
	r := newRig(3, 3)
	r.spawnAll(t, func(p *sim.Proc, rank *mpi.Rank) {
		if rank.ID() == 0 {
			got := map[int]bool{}
			for i := 0; i < 2; i++ {
				_, from := rank.Recv(p, mpi.Any, 1)
				got[from] = true
			}
			if !got[1] || !got[2] {
				t.Errorf("sources: %v", got)
			}
		} else {
			rank.Send(0, 1, rank.ID(), 64)
		}
	})
}

func TestBcastDeliversEverywhere(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8, 13} {
		r := newRig(n, (n+1)/2)
		got := make([]interface{}, n)
		r.spawnAll(t, func(p *sim.Proc, rank *mpi.Rank) {
			var body interface{}
			if rank.ID() == 2%n {
				body = "payload"
			}
			got[rank.ID()] = rank.Bcast(p, 2%n, body, 128)
		})
		for i, v := range got {
			if v != "payload" {
				t.Fatalf("n=%d rank %d got %v", n, i, v)
			}
		}
	}
}

func TestGatherCollectsAllRanks(t *testing.T) {
	const n = 9
	r := newRig(n, 4)
	var atRoot []interface{}
	r.spawnAll(t, func(p *sim.Proc, rank *mpi.Rank) {
		res := rank.Gather(p, 0, rank.ID()*10, 64)
		if rank.ID() == 0 {
			atRoot = res
		} else if res != nil {
			t.Errorf("non-root rank %d got a gather result", rank.ID())
		}
	})
	want := make([]interface{}, n)
	for i := range want {
		want[i] = i * 10
	}
	if !reflect.DeepEqual(atRoot, want) {
		t.Fatalf("gathered %v", atRoot)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const n = 6
	r := newRig(n, 3)
	var releases []sim.Time
	var latestArrival sim.Time
	r.spawnAll(t, func(p *sim.Proc, rank *mpi.Rank) {
		d := time.Duration(rank.ID()) * time.Millisecond
		p.Sleep(d)
		if p.Now() > latestArrival {
			latestArrival = p.Now()
		}
		rank.Barrier(p)
		releases = append(releases, p.Now())
	})
	for _, rel := range releases {
		if rel < latestArrival {
			t.Fatalf("released at %v before last arrival %v", rel, latestArrival)
		}
	}
}

func TestAllreduceSum(t *testing.T) {
	const n = 7
	r := newRig(n, 3)
	results := make([]int, n)
	r.spawnAll(t, func(p *sim.Proc, rank *mpi.Rank) {
		v := rank.Allreduce(p, rank.ID()+1, 64, func(a, b interface{}) interface{} {
			return a.(int) + b.(int)
		})
		results[rank.ID()] = v.(int)
	})
	want := n * (n + 1) / 2
	for i, v := range results {
		if v != want {
			t.Fatalf("rank %d allreduce = %d, want %d", i, v, want)
		}
	}
}

func TestConsecutiveCollectivesDontCross(t *testing.T) {
	const n = 5
	r := newRig(n, 2)
	r.spawnAll(t, func(p *sim.Proc, rank *mpi.Rank) {
		for round := 0; round < 4; round++ {
			v := rank.Bcast(p, 0, pick(rank.ID() == 0, round*100), 64)
			if v.(int) != round*100 {
				t.Errorf("round %d rank %d bcast = %v", round, rank.ID(), v)
				return
			}
			res := rank.Gather(p, 0, round, 64)
			if rank.ID() == 0 {
				for i, x := range res {
					if x.(int) != round {
						t.Errorf("round %d gather[%d] = %v", round, i, x)
						return
					}
				}
			}
		}
	})
}

func pick(cond bool, v int) interface{} {
	if cond {
		return v
	}
	return nil
}

func TestBcastIsLogarithmic(t *testing.T) {
	const n = 32
	r := newRig(n, 8)
	r.spawnAll(t, func(p *sim.Proc, rank *mpi.Rank) {
		rank.Bcast(p, 0, "x", 64)
	})
	// Root sends exactly ceil(log2(n)) = 5 messages; total = n-1.
	if got := r.comm.Rank(0).MessagesSent(); got != 5 {
		t.Fatalf("root sent %d messages, want 5", got)
	}
	var total int64
	for i := 0; i < n; i++ {
		total += r.comm.Rank(i).MessagesSent()
	}
	if total != n-1 {
		t.Fatalf("total messages = %d, want %d", total, n-1)
	}
}

// Property: allreduce with max agrees across all ranks for random sizes.
func TestAllreduceProperty(t *testing.T) {
	prop := func(sizeRaw uint8, vals []int16) bool {
		n := int(sizeRaw%12) + 1
		if len(vals) < n {
			return true
		}
		r := newRig(n, (n+2)/3+1)
		results := make([]int, n)
		for i := 0; i < n; i++ {
			i := i
			rank := r.comm.Rank(i)
			r.k.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
				v := rank.Allreduce(p, int(vals[i]), 64, func(a, b interface{}) interface{} {
					if a.(int) > b.(int) {
						return a
					}
					return b
				})
				results[i] = v.(int)
			})
		}
		if err := r.k.Run(sim.MaxTime); err != nil {
			return false
		}
		want := int(vals[0])
		for i := 1; i < n; i++ {
			if int(vals[i]) > want {
				want = int(vals[i])
			}
		}
		for _, v := range results {
			if v != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
