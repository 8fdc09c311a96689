package portals

import (
	"errors"
	"fmt"
	"testing"

	"lwfs/internal/netsim"
	"lwfs/internal/sim"
)

// The tests of the one server-directed pull loop (Puller.Pull): what it
// delivers, what it leaves behind after a failure, and that it allocates
// nothing once warm.

const pullChunk = 64 << 10

// pullRig is a client (eps[0]) exposing size bytes at (5, 1) and a server
// (eps[1]) with a Puller and a two-chunk pinned pool.
func pullRig(t *testing.T, size int64) (*rig, *Puller, *sim.Resource) {
	r := newRig(t, 2, 1000*mb)
	r.eps[0].Attach(5, 1, 0, &MD{Payload: netsim.SyntheticPayload(size)})
	return r, NewPuller(r.eps[1], "srv", pullChunk), sim.NewResource(r.k, "srv/pinned", 2*pullChunk)
}

func TestPullDeliversChunksInOrder(t *testing.T) {
	const total = 5*pullChunk + 100
	r, pl, pool := pullRig(t, total)
	var offs, sizes []int64
	var n int64
	var err error
	r.k.Spawn("srv", func(p *sim.Proc) {
		n, err = pl.Pull(p, r.eps[0].Node(), 5, 1, total, pool, func(q *sim.Proc, off int64, chunk netsim.Payload) error {
			if q != p {
				t.Error("sink ran outside the calling process")
			}
			offs, sizes = append(offs, off), append(sizes, chunk.Size)
			return nil
		})
	})
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if err != nil || n != total {
		t.Fatalf("pulled %d of %d bytes: %v", n, total, err)
	}
	want := []int64{0, 1, 2, 3, 4, 5}
	for i := range want {
		want[i] *= pullChunk
	}
	if fmt.Sprint(offs) != fmt.Sprint(want) || sizes[5] != 100 {
		t.Errorf("chunks at %v sized %v, want offsets %v and a 100-byte tail", offs, sizes, want)
	}
	if pool.Available() != pool.Capacity() || len(pl.free) != 1 {
		t.Errorf("pool %d of %d, %d free records; want a whole pool and the record back", pool.Available(), pool.Capacity(), len(pl.free))
	}
}

// A Get that fails mid-transfer ends it: the chunks before it are delivered,
// the pool is whole, and the same record serves the next transfer. A sink
// that fails stops deliveries but the rest is still drained.
func TestPullFailureLeavesThePoolWholeAndTheRecordReusable(t *testing.T) {
	r, pl, pool := pullRig(t, 3*pullChunk) // the client exposes 3 chunks; the server asks for 8
	sinkErr := errors.New("disk full")
	r.k.Spawn("srv", func(p *sim.Proc) {
		delivered := 0
		count := func(q *sim.Proc, off int64, chunk netsim.Payload) error { delivered++; return nil }

		n, err := pl.Pull(p, r.eps[0].Node(), 5, 1, 8*pullChunk, pool, count)
		if !errors.Is(err, ErrBounds) || n != 3*pullChunk || delivered != 3 {
			t.Errorf("overlong pull: %d bytes in %d chunks, %v; want 3 chunks and ErrBounds", n, delivered, err)
		}
		if pool.Available() != pool.Capacity() || len(pl.free) != 1 {
			t.Errorf("after a failed Get: pool %d of %d, %d free records", pool.Available(), pool.Capacity(), len(pl.free))
		}
		rec := pl.free[0]

		n, err = pl.Pull(p, r.eps[0].Node(), 5, 1, 3*pullChunk, pool, func(q *sim.Proc, off int64, chunk netsim.Payload) error {
			if off == pullChunk {
				return sinkErr
			}
			return count(q, off, chunk)
		})
		if !errors.Is(err, sinkErr) || n != pullChunk || delivered != 4 {
			t.Errorf("failing sink: %d bytes, %d chunks delivered in all, %v; want one more chunk and the sink's error", n, delivered, err)
		}
		if pool.Available() != pool.Capacity() || len(pl.free) != 1 || pl.free[0] != rec || rec.chunks.Len() != 0 {
			t.Errorf("after a failed sink: pool %d of %d, %d free records, %d chunks queued", pool.Available(), pool.Capacity(), len(pl.free), rec.chunks.Len())
		}

		if n, err := pl.Pull(p, r.eps[0].Node(), 5, 1, 0, pool, count); n != 0 || err != nil {
			t.Errorf("empty pull: %d bytes, %v", n, err)
		}
	})
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
}

// A warm pull allocates nothing, one chunk or eight: the mailbox, the puller
// function and the chunk slots come off the Puller's free list, the puller
// process off the kernel's, the wire records off the network's.
func TestWarmPullAllocatesNothing(t *testing.T) {
	for _, chunks := range []int64{1, 8} {
		t.Run(fmt.Sprintf("%d chunks", chunks), func(t *testing.T) {
			total := chunks * pullChunk
			r, pl, pool := pullRig(t, total)
			var pulled int64
			sink := func(q *sim.Proc, off int64, chunk netsim.Payload) error {
				pulled += chunk.Size
				return nil
			}
			got := mallocsPer(t, r, 100, 2000, func(p *sim.Proc) error {
				_, err := pl.Pull(p, r.eps[0].Node(), 5, 1, total, pool, sink)
				return err
			})
			if got > 0.01 {
				t.Errorf("a warm %d-chunk pull makes %.2f allocations, want none", chunks, got)
			}
			if pulled != 2100*total {
				t.Errorf("pulled %d bytes, want %d", pulled, 2100*total)
			}
		})
	}
}
