package portals

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

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

// A pull's bookkeeping is bounded by its pinned pool, not by its length: 64
// chunks through an 8-chunk pool arrive in order, each with its own bytes,
// through at most 9 slots.
func TestPullSlotsAreBoundedByThePool(t *testing.T) {
	const chunks = 64
	data := make([]byte, chunks*pullChunk)
	for i := range data {
		data[i] = byte(i / pullChunk) // every byte names its chunk
	}
	r := newRig(t, 2, 1000*mb)
	r.eps[0].Attach(5, 1, 0, &MD{Payload: netsim.BytesPayload(data)})
	pl, pool := NewPuller(r.eps[1], "srv", pullChunk), sim.NewResource(r.k, "srv/pinned", 8*pullChunk)
	var next int64
	r.k.Spawn("srv", func(p *sim.Proc) {
		n, err := pl.Pull(p, r.eps[0].Node(), 5, 1, chunks*pullChunk, pool, func(q *sim.Proc, off int64, chunk netsim.Payload) error {
			if off != next || chunk.Size != pullChunk || !bytes.Equal(chunk.Data, data[off:off+pullChunk]) {
				t.Errorf("chunk of %d bytes at %d, want chunk %d's %d bytes at %d", chunk.Size, off, next/pullChunk, pullChunk, next)
			}
			next += pullChunk
			q.Sleep(time.Millisecond) // a slow sink: the fetch side runs ahead as far as the pool lets it
			return nil
		})
		if err != nil || n != chunks*pullChunk {
			t.Errorf("pulled %d of %d bytes: %v", n, chunks*pullChunk, err)
		}
	})
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if len(pl.free) != 1 || cap(pl.free[0].slots) > 9 {
		t.Errorf("%d free records; the pull kept %d slots, want at most 9", len(pl.free), cap(pl.free[0].slots))
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

// A warm pull allocates nothing, one chunk or eight: the mailbox, the
// continuation and the chunk slots come off the Puller's free list, the wire
// records off the network's.
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

// cutAfterFirstChunk is a sink that partitions client from server while it
// consumes chunk 0, and records the offsets it is handed. The fetch side has
// already sent chunk 1's Get by then, so that Get's reply is the first message
// the cut drops.
func cutAfterFirstChunk(r *rig, offs *[]int64, cut **netsim.Fault) func(q *sim.Proc, off int64, chunk netsim.Payload) error {
	return func(q *sim.Proc, off int64, chunk netsim.Payload) error {
		if off == 0 {
			*cut = r.net.Partition([]netsim.NodeID{r.eps[0].Node()}, []netsim.NodeID{r.eps[1].Node()})
		}
		*offs = append(*offs, off)
		return nil
	}
}

// A pull that stalls — no reply, no retry policy — leaves only its consumer
// parked: the fetch side is a continuation waiting on the reply slot, not a
// process, so the deadlock report names the consumer alone.
func TestStalledPullParksOnlyTheConsumer(t *testing.T) {
	r, pl, pool := pullRig(t, 4*pullChunk)
	var offs []int64
	var cut *netsim.Fault
	r.k.Spawn("srv", func(p *sim.Proc) {
		pl.Pull(p, r.eps[0].Node(), 5, 1, 4*pullChunk, pool, cutAfterFirstChunk(r, &offs, &cut))
		t.Error("a pull whose Get is lost returned without a retry policy")
	})
	var dl *sim.DeadlockError
	if err := r.k.Run(sim.MaxTime); !errors.As(err, &dl) {
		t.Fatalf("Run: %v, want a deadlock", err)
	}
	if want := []string{"srv"}; !reflect.DeepEqual(dl.Blocked, want) {
		t.Errorf("blocked %v, want %v", dl.Blocked, want)
	}
	if fmt.Sprint(offs) != "[0]" {
		t.Errorf("delivered chunks at %v, want only chunk 0", offs)
	}
	r.k.Shutdown()
}

// Under a retry policy a partition healed within the budget costs a timeout
// and a pause, not the transfer: every byte arrives, in order, and the pool
// ends whole.
func TestPullRetriesThroughAHealedPartition(t *testing.T) {
	const total = 5 * pullChunk
	r, pl, pool := pullRig(t, total)
	r.eps[1].SetGetRetry(quickRetry, sim.NewRand(1))
	var offs []int64
	var cut *netsim.Fault
	var n int64
	var err error
	r.k.Spawn("srv", func(p *sim.Proc) {
		sink := cutAfterFirstChunk(r, &offs, &cut)
		n, err = pl.Pull(p, r.eps[0].Node(), 5, 1, total, pool, func(q *sim.Proc, off int64, chunk netsim.Payload) error {
			if off == 0 {
				r.k.After(5*time.Millisecond, func() { cut.Heal() })
			}
			return sink(q, off, chunk)
		})
	})
	if e := r.k.Run(sim.MaxTime); e != nil {
		t.Fatal(e)
	}
	if err != nil || n != total {
		t.Fatalf("pulled %d of %d bytes: %v", n, total, err)
	}
	if want := "[0 65536 131072 196608 262144]"; fmt.Sprint(offs) != want {
		t.Errorf("chunks at %v, want %v", offs, want)
	}
	if r.k.Now() < sim.Time(quickRetry.Timeout) {
		t.Errorf("the pull ended at %v, before any attempt could time out: the cut dropped nothing", r.k.Now())
	}
	if pool.Available() != pool.Capacity() || len(pl.free) != 1 {
		t.Errorf("pool %d of %d, %d free records; want a whole pool and the record back", pool.Available(), pool.Capacity(), len(pl.free))
	}
}

// A partition that outlasts the retry budget ends the pull with
// ErrGetTimeout: the chunks before the cut are delivered, the pool is whole,
// and the record serves the next Pull once the network heals.
func TestPullGivesUpAfterTheRetryBudget(t *testing.T) {
	const total = 4 * pullChunk
	r, pl, pool := pullRig(t, total)
	r.eps[1].SetGetRetry(quickRetry, sim.NewRand(1))
	r.k.Spawn("srv", func(p *sim.Proc) {
		var offs []int64
		var cut *netsim.Fault
		n, err := pl.Pull(p, r.eps[0].Node(), 5, 1, total, pool, cutAfterFirstChunk(r, &offs, &cut))
		if !errors.Is(err, ErrGetTimeout) || !strings.HasPrefix(err.Error(), "portals: pulling client data: ") {
			t.Errorf("err = %v, want ErrGetTimeout wrapped as pulling client data", err)
		}
		if n != pullChunk || fmt.Sprint(offs) != "[0]" {
			t.Errorf("%d bytes in chunks at %v, want chunk 0 alone", n, offs)
		}
		if pool.Available() != pool.Capacity() || len(pl.free) != 1 {
			t.Fatalf("after the timeout: pool %d of %d, %d free records", pool.Available(), pool.Capacity(), len(pl.free))
		}
		rec := pl.free[0]

		cut.Heal()
		n, err = pl.Pull(p, r.eps[0].Node(), 5, 1, total, pool, func(*sim.Proc, int64, netsim.Payload) error { return nil })
		if err != nil || n != total {
			t.Errorf("the next pull: %d of %d bytes, %v", n, total, err)
		}
		if len(pl.free) != 1 || pl.free[0] != rec || rec.chunks.Len() != 0 {
			t.Errorf("the next pull did not reuse the record cleanly: %d free records, %d chunks queued", len(pl.free), rec.chunks.Len())
		}
	})
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
}
