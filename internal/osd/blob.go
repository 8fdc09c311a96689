// Package osd implements the object-based storage device of the LWFS
// storage architecture (paper §3.3, Figure 7b): a flat store of objects
// addressed by object ID, each belonging to exactly one container (the unit
// of access control, §3.1.1), fronted by a simulated disk with calibrated
// bandwidth and per-operation overheads.
//
// Block-layout decisions and policy enforcement live here, on the device —
// not on a central file server — which is what lets LWFS clients reach
// storage without a metadata-server round trip per access.
package osd

import (
	"slices"
	"sort"

	"lwfs/internal/netsim"
)

// Blob is a sparse byte sequence supporting mixed real, seeded and synthetic
// writes. Real and seeded writes are stored as extents and read back
// exactly, with zero-fill for holes; synthetic writes (size-only payloads
// used by large-scale benchmarks) extend the logical size without
// allocating memory.
//
// The extent list is kept sorted, non-overlapping and free of empty extents
// in place: a write binary-searches the extents it touches and splices only
// those. An extent holds private bytes or a seeded run. Private bytes belong
// to the Blob alone (Write copies in, Read copies out), so they are
// overwritten in place; a head and a tail trimmed from one extent may share
// its array, but only the last extent grows into spare capacity, and any
// extent sharing its array lies after it. A seeded extent holds no bytes:
// it is cut, and a read inside it answered, by arithmetic on its run.
type Blob struct {
	size    int64
	extents []extent
}

type extent struct {
	off int64
	pl  netsim.Payload // private bytes (len(Data) == Size) or a seeded run
}

func (e *extent) end() int64 { return e.off + e.pl.Size }

// Tail coalescing: an append of at most recordSize bytes that lands exactly
// at the end of a private last extent is copied into that extent while the
// two together fit in chunkSize, so a log of small records costs one extent
// per chunk, not one per record. Larger payloads — application data — stay
// extents of their own and are copied once, never again to grow a chunk. A
// seeded append that continues the last extent's run extends it.
const (
	chunkSize  = 64 << 10
	recordSize = 4 << 10
)

// Size returns the logical size (highest written offset + length).
func (b *Blob) Size() int64 { return b.size }

// firstEndingAfter returns the index of the first extent whose end lies past
// off — the first one a range starting at off can touch.
func (b *Blob) firstEndingAfter(off int64) int {
	return sort.Search(len(b.extents), func(i int) bool { return b.extents[i].end() > off })
}

// Write stores pl at off. Real bytes are copied and a seeded run is kept
// through pl.Run, so no caller's buffer escapes: the records
// Device.Append's callers build stay off the heap. A synthetic payload only
// extends the logical size.
func (b *Blob) Write(off int64, pl netsim.Payload) {
	if off < 0 {
		panic("osd: negative write offset")
	}
	if end := off + pl.Size; end > b.size {
		b.size = end
	}
	if pl.Seeded() {
		if pl.Size > 0 {
			b.splice(off, pl)
		}
		return
	}
	data := pl.Data // past its end, a hole
	if len(data) == 0 {
		return
	}
	n := len(b.extents)
	if n > 0 && off < b.extents[n-1].end() {
		b.splice(off, pl)
		return
	}
	// At or past the end of the last extent, nothing to search.
	if n > 0 {
		last := &b.extents[n-1]
		if need := last.pl.Size + int64(len(data)); last.pl.Data != nil && off == last.end() && len(data) <= recordSize && need <= chunkSize {
			if need > int64(cap(last.pl.Data)) {
				grown := make([]byte, last.pl.Size, min(max(need, 2*int64(cap(last.pl.Data))), chunkSize))
				copy(grown, last.pl.Data)
				last.pl.Data = grown
			}
			last.pl.Data = append(last.pl.Data, data...)
			last.pl.Size = need
			return
		}
	}
	b.extents = append(b.extents, extent{off: off})
	x := &b.extents[n].pl
	x.Data = slices.Clone(data)
	x.Size = int64(len(data))
}

// splice is Write for a seeded run, or for real bytes that some extent ends
// past. It stays out of line so that a tail append — every journal record —
// runs on Write's small frame: a store is the deepest call of a storage
// service thread, and a larger frame there grows every such thread's stack.
func (b *Blob) splice(off int64, pl netsim.Payload) {
	if !pl.Seeded() {
		pl.Size = int64(len(pl.Data))
	}
	end := off + pl.Size
	if n := len(b.extents); n == 0 || off >= b.extents[n-1].end() {
		// A run at or past the end: it extends a last extent whose run it
		// continues.
		if n > 0 && off == b.extents[n-1].end() {
			if run, ok := b.extents[n-1].pl.Append(pl.Run()); ok {
				b.extents[n-1].pl = run
				return
			}
		}
		b.extents = append(b.extents, newExtent(off, pl))
		return
	}
	// Some extent ends past off: lo is in range.
	lo := b.firstEndingAfter(off)
	if x := &b.extents[lo]; x.pl.Data != nil && pl.Data != nil && x.off <= off && end <= x.end() {
		// Real bytes inside one private extent: overwrite in place.
		copy(x.pl.Data[off-x.off:], pl.Data)
		return
	}
	// extents[lo:hi] are the extents [off, end) overlaps; what sticks out of
	// the first and the last survives as a trimmed head and tail.
	hi := lo + sort.Search(len(b.extents)-lo, func(i int) bool { return b.extents[lo+i].off >= end })
	var pieces [3]extent
	np := 0
	if x := &b.extents[lo]; x.off < off { // it ends past off, so it overlaps
		pieces[np] = extent{off: x.off, pl: x.pl.Slice(0, off-x.off)}
		np++
	}
	pieces[np] = newExtent(off, pl)
	np++
	if lo < hi {
		if x := &b.extents[hi-1]; x.end() > end {
			pieces[np] = extent{off: end, pl: x.pl.Slice(end-x.off, x.end()-end)}
			np++
		}
	}
	b.extents = slices.Replace(b.extents, lo, hi, pieces[:np]...)
}

// newExtent is the extent a write adds at off: a private copy of real bytes,
// or the seeded run. It stays out of line, so that its payload temporaries
// stay out of splice's frame.
//
//go:noinline
func newExtent(off int64, pl netsim.Payload) extent {
	if pl.Seeded() {
		return extent{off: off, pl: pl.Run()}
	}
	return extent{off: off, pl: netsim.BytesPayload(slices.Clone(pl.Data))}
}

// Read returns [off, off+length). If the blob holds any real or seeded
// bytes in the range (or anywhere — callers treat a real blob as fully
// materializable), the result carries content with zero-filled holes;
// otherwise it is a synthetic payload of the requested length. Reading past
// the logical size zero-fills (like reading a sparse file's hole); callers
// that care check Size first. A range inside one seeded extent comes back
// as a seeded run, without bytes; any other range is a fresh copy.
func (b *Blob) Read(off, length int64) netsim.Payload {
	if off < 0 || length < 0 {
		panic("osd: negative read range")
	}
	if len(b.extents) == 0 {
		return netsim.SyntheticPayload(length)
	}
	end, first := off+length, b.firstEndingAfter(off)
	if first < len(b.extents) {
		if x := &b.extents[first]; x.pl.Seeded() && length > 0 && x.off <= off && end <= x.end() {
			return x.pl.Slice(off-x.off, length)
		}
	}
	out := make([]byte, length)
	for _, x := range b.extents[first:] {
		if x.off >= end {
			break
		}
		lo, hi := max(x.off, off), min(x.end(), end)
		x.pl.Slice(lo-x.off, hi-lo).CopyTo(out[lo-off:])
	}
	return netsim.BytesPayload(out)
}

// Truncate sets the logical size, discarding real data past it.
func (b *Blob) Truncate(size int64) {
	if size < 0 {
		panic("osd: negative truncate")
	}
	b.size = size
	keep := b.firstEndingAfter(size)
	if keep < len(b.extents) && b.extents[keep].off < size {
		x := &b.extents[keep]
		x.pl = x.pl.Slice(0, size-x.off)
		keep++
	}
	clear(b.extents[keep:]) // drop the references so the bytes can be collected
	b.extents = b.extents[:keep]
}
