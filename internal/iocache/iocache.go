// Package iocache is a client-side caching and prefetching library for
// LWFS objects — the layer Figure 2 draws *above* the LWFS-core ("caching,
// prefetching, access to datasets, app-specific APIs"). The core
// deliberately ships no caching policy because no policy fits everyone
// (§3); this package is one reasonable policy an application can adopt,
// replace, or ignore:
//
//   - fixed-size block cache with LRU eviction,
//   - sequential-access detection driving asynchronous read-ahead
//     (Kotz/Ellis-style practical prefetching, the paper's reference [20]),
//   - single-flight fetches: concurrent readers of one block share one
//     server round trip.
//
// It is read-only by design: checkpoint-style writers gain nothing from
// write-back caching (§4), and a writer that wants one can build it the
// same way this was built.
package iocache

import (
	"container/list"
	"fmt"

	"lwfs/internal/core"
	"lwfs/internal/metrics"
	"lwfs/internal/netsim"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
)

// Options tune a Reader.
type Options struct {
	BlockSize      int64 // cache block size (default 1 MiB)
	CapacityBlocks int   // cache capacity in blocks (default 32)
	ReadAhead      int   // blocks prefetched past a sequential cursor (default 4)
}

func (o Options) withDefaults() Options {
	if o.BlockSize <= 0 {
		o.BlockSize = 1 << 20
	}
	if o.CapacityBlocks <= 0 {
		o.CapacityBlocks = 32
	}
	if o.ReadAhead < 0 {
		o.ReadAhead = 0
	} else if o.ReadAhead == 0 {
		o.ReadAhead = 4
	}
	return o
}

type block struct {
	idx     int64
	payload netsim.Payload
	elem    *list.Element
}

// Reader caches and prefetches one object's data.
type Reader struct {
	c    *core.Client
	ref  storage.ObjRef
	caps core.CapSet
	opts Options
	size int64 // object size at open

	blocks   map[int64]*block
	lru      *list.List // front = most recent
	inflight map[int64]*sim.Future

	hits, misses, prefetches, evictions *metrics.Counter
	lastSeq                             int64 // last sequentially-read block
}

// NewReader opens a caching reader over the object. It stats the object
// once to learn its size.
func NewReader(p *sim.Proc, c *core.Client, ref storage.ObjRef, caps core.CapSet, opts Options) (*Reader, error) {
	st, err := c.Stat(p, ref, caps)
	if err != nil {
		return nil, fmt.Errorf("iocache: stat: %w", err)
	}
	// Each reader registers its own instrument set — per-reader hit/miss
	// behavior is an experiment observable, so readers must not aggregate
	// into one shared counter.
	reg := c.Endpoint().Metrics()
	sc := reg.Scope("iocache").Scope(c.Endpoint().NodeName()).Scope(fmt.Sprintf("r%d", reg.NextID()))
	return &Reader{
		c:          c,
		ref:        ref,
		caps:       caps,
		opts:       opts.withDefaults(),
		size:       st.Size,
		blocks:     make(map[int64]*block),
		lru:        list.New(),
		inflight:   make(map[int64]*sim.Future),
		lastSeq:    -2,
		hits:       sc.Counter("hits"),
		misses:     sc.Counter("misses"),
		prefetches: sc.Counter("prefetches"),
		evictions:  sc.Counter("evictions"),
	}, nil
}

// Size returns the object size observed at open.
func (r *Reader) Size() int64 { return r.size }

func (r *Reader) nblocks() int64 {
	return (r.size + r.opts.BlockSize - 1) / r.opts.BlockSize
}

// insert adds a fetched block, evicting LRU blocks past capacity.
func (r *Reader) insert(idx int64, payload netsim.Payload) *block {
	if b, ok := r.blocks[idx]; ok {
		r.lru.MoveToFront(b.elem)
		return b
	}
	b := &block{idx: idx, payload: payload}
	b.elem = r.lru.PushFront(b)
	r.blocks[idx] = b
	for r.lru.Len() > r.opts.CapacityBlocks {
		tail := r.lru.Back()
		victim := tail.Value.(*block)
		r.lru.Remove(tail)
		delete(r.blocks, victim.idx)
		r.evictions.Inc()
	}
	return b
}

// fetch returns block idx, from cache, by joining an in-flight fetch, or
// by reading it from the storage server.
func (r *Reader) fetch(p *sim.Proc, idx int64) (netsim.Payload, error) {
	if b, ok := r.blocks[idx]; ok {
		r.hits.Inc()
		r.lru.MoveToFront(b.elem)
		return b.payload, nil
	}
	if fut, ok := r.inflight[idx]; ok {
		// Single flight: join the fetch already under way (counts as a hit
		// — no extra server request).
		r.hits.Inc()
		v, err := fut.Wait(p)
		if err != nil {
			return netsim.Payload{}, err
		}
		return v.(netsim.Payload), nil
	}
	r.misses.Inc()
	fut := sim.NewFuture()
	r.inflight[idx] = fut
	payload, err := r.c.Read(p, r.ref, r.caps, idx*r.opts.BlockSize, r.blockLen(idx))
	delete(r.inflight, idx)
	if err != nil {
		fut.Complete(nil, err)
		return netsim.Payload{}, err
	}
	r.insert(idx, payload)
	fut.Complete(payload, nil)
	return payload, nil
}

func (r *Reader) blockLen(idx int64) int64 {
	n := r.opts.BlockSize
	if end := (idx + 1) * r.opts.BlockSize; end > r.size {
		n = r.size - idx*r.opts.BlockSize
	}
	return n
}

// prefetch launches asynchronous fetches for blocks (idx, idx+ahead].
func (r *Reader) prefetchFrom(idx int64) {
	k := r.c.Endpoint().Kernel()
	for i := idx + 1; i <= idx+int64(r.opts.ReadAhead) && i < r.nblocks(); i++ {
		i := i
		if _, cached := r.blocks[i]; cached {
			continue
		}
		if _, busy := r.inflight[i]; busy {
			continue
		}
		fut := sim.NewFuture()
		r.inflight[i] = fut
		r.prefetches.Inc()
		k.Spawn(fmt.Sprintf("iocache/prefetch-%d", i), func(q *sim.Proc) {
			payload, err := r.c.Read(q, r.ref, r.caps, i*r.opts.BlockSize, r.blockLen(i))
			delete(r.inflight, i)
			if err != nil {
				fut.Complete(nil, err)
				return
			}
			r.insert(i, payload)
			fut.Complete(payload, nil)
		})
	}
}

// ReadAt reads [off, off+length), serving from cache where possible and
// prefetching ahead of sequential cursors. Short reads at end-of-object
// return the available bytes.
func (r *Reader) ReadAt(p *sim.Proc, off, length int64) (netsim.Payload, error) {
	if off < 0 || length < 0 {
		return netsim.Payload{}, fmt.Errorf("iocache: negative range")
	}
	if off >= r.size {
		return netsim.Payload{}, nil
	}
	if off+length > r.size {
		length = r.size - off
	}
	out := netsim.Payload{Size: length}
	var buf []byte
	first := off / r.opts.BlockSize
	last := (off + length - 1) / r.opts.BlockSize
	for idx := first; idx <= last; idx++ {
		payload, err := r.fetch(p, idx)
		if err != nil {
			return netsim.Payload{}, err
		}
		if payload.Data != nil {
			if buf == nil {
				buf = make([]byte, length)
			}
			blockStart := idx * r.opts.BlockSize
			lo, hi := blockStart, blockStart+payload.Size
			if lo < off {
				lo = off
			}
			if hi > off+length {
				hi = off + length
			}
			copy(buf[lo-off:hi-off], payload.Data[lo-blockStart:hi-blockStart])
		}
	}
	// Sequential detection: this read continues where the previous one
	// left off (or re-reads the same tail block), so read ahead.
	if first == r.lastSeq || first == r.lastSeq+1 {
		r.prefetchFrom(last)
	}
	r.lastSeq = last
	out.Data = buf
	return out, nil
}
