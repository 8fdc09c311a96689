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

// Blob is a sparse byte sequence supporting mixed real and synthetic
// writes. Real writes (payload carries bytes) are stored as extents and
// read back exactly, with zero-fill for holes; synthetic writes (size-only
// payloads used by large-scale benchmarks) extend the logical size without
// allocating memory.
//
// The extent list is kept sorted, non-overlapping and free of empty extents
// in place: a write binary-searches the extents it touches and splices only
// those. An extent is private or shared. A private extent's bytes belong to
// the Blob alone (Write copies in, Read copies out), and no two private
// extents share a backing array, so a private extent may be overwritten and
// grown in place. A shared extent holds a frozen payload kept by reference
// (Device.Write), which other blobs may hold too: it is never written or
// grown in place, and its capacity is clipped to its length.
type Blob struct {
	size    int64
	extents []extent
}

type extent struct {
	off    int64
	data   []byte
	shared bool // data is a kept frozen payload, or a view of one
}

func (e extent) end() int64 { return e.off + int64(len(e.data)) }

// Tail coalescing: an append of at most recordSize bytes that lands exactly
// at the end of a private last extent is copied into that extent while the
// two together fit in chunkSize, so a log of small records costs one extent
// per chunk, not one per record. Larger payloads — application data — stay
// extents of their own and are copied once, never again to grow a chunk.
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

// Write stores payload at off, copying its bytes. If payload carries real
// bytes they become readable; a synthetic payload only extends the logical
// size.
func (b *Blob) Write(off int64, payload netsim.Payload) {
	b.put(off, payload.Size, payload.Data, nil)
}

// put stores data at off for Write and Device.store. It copies data, unless
// keep is non-nil: then keep (the same bytes, frozen) is stored by reference
// wherever a new extent is made. The two arrive apart because escape
// analysis is static: only a caller whose bytes may be kept passes them as
// keep, so the buffers of Write's and Device.Append's callers stay off the
// heap.
func (b *Blob) put(off, size int64, data, keep []byte) {
	if off < 0 {
		panic("osd: negative write offset")
	}
	if end := off + size; end > b.size {
		b.size = end
	}
	if len(data) == 0 {
		return
	}

	// Tail: at or past the end of the last extent, nothing to search.
	if n := len(b.extents); n == 0 || off >= b.extents[n-1].end() {
		if n > 0 {
			last := &b.extents[n-1]
			if need := len(last.data) + len(data); !last.shared && off == last.end() && len(data) <= recordSize && need <= chunkSize {
				if need > cap(last.data) {
					grown := make([]byte, len(last.data), min(max(need, 2*cap(last.data)), chunkSize))
					copy(grown, last.data)
					last.data = grown
				}
				last.data = append(last.data, data...)
				return
			}
		}
		b.extents = append(b.extents, newExtent(off, data, keep))
		return
	}

	b.splice(off, data, keep)
}

// splice is put for a write that some extent ends past. It stays out of
// line so that a tail append — every journal record — runs on put's small
// frame: a store is the deepest call of a storage service thread, and a
// larger frame there grows every such thread's stack.
func (b *Blob) splice(off int64, data, keep []byte) {
	end := off + int64(len(data))
	// Some extent ends past off: lo is in range.
	lo := b.firstEndingAfter(off)
	if x := b.extents[lo]; !x.shared && x.off <= off && end <= x.end() {
		// Inside one private extent: overwrite in place. This is also why a
		// private extent is never split in two, so a head and a tail kept
		// below from one backing array are both views of a shared extent.
		copy(x.data[off-x.off:], data)
		return
	}
	// extents[lo:hi] are the extents [off, end) overlaps; what sticks out of
	// the first and the last survives as a trimmed head and tail.
	hi := lo + sort.Search(len(b.extents)-lo, func(i int) bool { return b.extents[lo+i].off >= end })
	var pieces [3]extent
	np := 0
	if x := b.extents[lo]; x.off < off { // it ends past off, so it overlaps
		pieces[np] = extent{off: x.off, data: x.data[:off-x.off], shared: x.shared}
		np++
	}
	pieces[np] = newExtent(off, data, keep)
	np++
	if lo < hi {
		if x := b.extents[hi-1]; x.end() > end {
			pieces[np] = extent{off: end, data: x.data[end-x.off:], shared: x.shared}
			np++
		}
	}
	b.extents = slices.Replace(b.extents, lo, hi, pieces[:np]...)
}

// newExtent is the extent a write adds at off: keep by reference, its
// capacity clipped, or else a private copy of data.
func newExtent(off int64, data, keep []byte) extent {
	if keep != nil {
		return extent{off: off, data: keep[:len(keep):len(keep)], shared: true}
	}
	return extent{off: off, data: slices.Clone(data)}
}

// Read returns [off, off+length). If the blob holds any real bytes in the
// range (or anywhere — callers treat a real blob as fully materializable),
// the result carries real bytes with zero-filled holes; otherwise it is a
// synthetic payload of the requested length. Reading past the logical size
// zero-fills (like reading a sparse file's hole); callers that care check
// Size first.
//
// A range inside one shared extent comes back by reference: a frozen view,
// its capacity clipped to the range, which nobody writes (a shared extent
// is never written in place), so neither may its reader. Any other range is
// a fresh copy.
func (b *Blob) Read(off, length int64) netsim.Payload {
	if off < 0 || length < 0 {
		panic("osd: negative read range")
	}
	if len(b.extents) == 0 {
		return netsim.SyntheticPayload(length)
	}
	end, first := off+length, b.firstEndingAfter(off)
	if first < len(b.extents) {
		if x := b.extents[first]; x.shared && length > 0 && x.off <= off && end <= x.end() {
			return netsim.Payload{Size: length, Data: x.data[off-x.off : end-x.off : end-x.off], Frozen: true}
		}
	}
	out := make([]byte, length)
	for _, x := range b.extents[first:] {
		if x.off >= end {
			break
		}
		lo, hi := max(x.off, off), min(x.end(), end)
		copy(out[lo-off:hi-off], x.data[lo-x.off:hi-x.off])
	}
	return netsim.Payload{Size: length, Data: out}
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
		x.data = x.data[:size-x.off]
		keep++
	}
	clear(b.extents[keep:]) // drop the references so the bytes can be collected
	b.extents = b.extents[:keep]
}
