package stripe

import (
	"fmt"

	"lwfs/internal/core"
	"lwfs/internal/metrics"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
)

// rebuildChunk is the extent size a rebuild reconstructs per round:
// large enough to amortize per-RPC cost, small enough to bound the memory a
// reconstruction holds at once.
const rebuildChunk = 1 << 20

// Rebuilder reconstructs the objects a dead storage server held onto
// replacement objects on surviving servers, patching the layout in place of
// waiting for the dead server to restart. Replica columns re-copy from a
// surviving mirror with a third-party transfer (the replacement's server
// pulls straight from the survivor); parity-group members XOR-reconstruct
// chunk by chunk through the rebuilding client.
//
// Fencing: rebuilt content lands on brand-new objects, and only the
// returned layout references them — the caller persists it under whatever
// exclusive lock guards the file's metadata (lwfspfs.FS.Rebuild holds the
// file's write lock). The dead server's stale objects are never referenced
// again even if it restarts, so a resurrected server cannot serve
// pre-failure bytes into a post-rebuild layout.
type Rebuilder struct {
	e *Engine

	// Registered under `rebuild.<node>.*`: objects queued and completed
	// across all rebuilds this node has run, plus the bytes written to
	// replacements.
	done  *metrics.Counter
	total *metrics.Counter
	bytes *metrics.Counter
}

// NewRebuilder wraps an engine (its client, caps, and fan-out window drive
// the reconstruction transfers).
func NewRebuilder(e *Engine) *Rebuilder {
	sc := e.c.Endpoint().Metrics().Scope("rebuild").Scope(e.c.Endpoint().NodeName())
	return &Rebuilder{
		e:     e,
		done:  sc.Counter("objects_done"),
		total: sc.Counter("objects_total"),
		bytes: sc.Counter("bytes_rebuilt"),
	}
}

// Rebuild reconstructs every object of l hosted on dead onto replacement
// objects created on spares, returning the patched layout (the input layout
// is not modified; on error it comes back unchanged). l.Size must reflect
// the logical size — it bounds how many bytes each object holds, so a stale
// zero Size rebuilds empty objects. Holes hold nothing and are never
// rebuilt; a parity reconstruction reads them as zeros. Spares rotate
// round-robin, preferring servers that do not already hold a related object
// so the repaired layout regains failure independence when enough spares
// exist. RAID-0 layouts have nothing to rebuild from and return
// ErrUnrecoverable when the dead server held any of their objects. The
// replacements are synced durable before the patched layout is returned.
func (r *Rebuilder) Rebuild(p *sim.Proc, l Layout, dead storage.Target, spares []storage.Target) (Layout, error) {
	if err := l.Validate(); err != nil {
		return l, err
	}
	var idxs []int
	for i, o := range l.Objs {
		if !IsHole(o) && storage.TargetOf(o) == dead {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		return l, nil
	}
	if l.Scheme == Raid0 {
		return l, fmt.Errorf("stripe/rebuild: raid0 layout: %w", ErrUnrecoverable)
	}
	r.total.Add(int64(len(idxs)))
	out := l
	out.Objs = append([]storage.ObjRef(nil), l.Objs...)
	var repaired targetSet
	spareAt := 0
	// A failed attempt returns the unpatched layout, so the replacement
	// objects created up to that point would be orphans — remove them
	// (best effort: the spare itself may have died) before returning.
	var created []storage.ObjRef
	fail := func(err error) (Layout, error) {
		for _, ref := range created {
			r.e.c.Remove(p, ref, r.e.caps) //nolint:errcheck
		}
		return l, err
	}
	for _, idx := range idxs {
		t, ok := r.pickSpare(out, idx, dead, spares, &spareAt)
		if !ok {
			return fail(fmt.Errorf("stripe/rebuild: no usable spare for object %d", idx))
		}
		ref, err := r.e.c.CreateObject(p, t, r.e.caps)
		if err != nil {
			return fail(fmt.Errorf("stripe/rebuild: create on %v: %w", t, err))
		}
		created = append(created, ref)
		if err := r.rebuildObject(p, out, idx, ref, dead); err != nil {
			return fail(err)
		}
		out.Objs[idx] = ref
		repaired.add(t)
		r.done.Inc()
	}
	if err := joinIndexed("stripe/sync", r.e.syncTargets(p, repaired)); err != nil {
		return fail(fmt.Errorf("stripe/rebuild: sync: %w", err))
	}
	return out, nil
}

// rebuildObject reconstructs the content of l.Objs[idx] into dst. The
// layout still references the dead object at idx, so reconstruction sources
// are everything else.
func (r *Rebuilder) rebuildObject(p *sim.Proc, l Layout, idx int, dst storage.ObjRef, dead storage.Target) error {
	length := l.ObjectLength(idx)
	if length == 0 {
		return nil
	}
	if l.Scheme == Replica {
		w := l.Width()
		col := idx % w
		for c := 0; c < l.Copies; c++ {
			src := l.ReplicaObj(c, col)
			if c*w+col == idx || storage.TargetOf(src) == dead {
				continue
			}
			n, err := r.e.c.Copy(p, dst, r.e.caps, 0, src, r.e.caps, 0, length)
			if err != nil {
				return fmt.Errorf("stripe/rebuild[%d]: copy: %w", idx, err)
			}
			r.bytes.Add(n)
			return nil
		}
		return fmt.Errorf("stripe/rebuild[%d]: no surviving copy: %w", idx, ErrUnrecoverable)
	}
	for off := int64(0); off < length; off += rebuildChunk {
		n := min(rebuildChunk, length-off)
		pl, err := r.e.reconstructExtent(p, l, idx, off, n, nil)
		if err != nil {
			return err
		}
		if _, err := r.e.c.Write(p, dst, r.e.caps, off, pl); err != nil {
			return fmt.Errorf("stripe/rebuild[%d]: write: %w", idx, err)
		}
		r.bytes.Add(n)
	}
	return nil
}

// pickSpare returns the next spare that is neither the dead server nor a
// host of an object related to slot idx (another copy of the same column
// for replicas, any group member for parity). When no spare satisfies
// independence it falls back to any non-dead spare — a degraded placement
// beats no redundancy at all.
func (r *Rebuilder) pickSpare(l Layout, idx int, dead storage.Target, spares []storage.Target, at *int) (storage.Target, bool) {
	for i, t := range core.Candidates(spares, *at,
		func(t storage.Target) bool { return t == dead },
		func(t storage.Target) bool { return l.Related(idx, t) }) {
		*at = i + 1
		return t, true
	}
	return storage.Target{}, false
}
