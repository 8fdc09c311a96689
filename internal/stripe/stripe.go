// Package stripe is the client-side striped-layout engine: the
// "distribution policy as a library" layer of the paper's Figures 2/3,
// reusable by any application built on the LWFS-core.
//
// It does three jobs:
//
//   - Layout codec: the persistent description of a striped object set
//     (stripe unit, object list, logical size), previously private to
//     internal/lwfspfs. Any client library can now read or write the same
//     metadata format.
//
//   - Planning: Plan maps a contiguous byte range of the logical file onto
//     the object set, coalescing every stripe unit that lands on the same
//     object into ONE contiguous request per object — the PVFS lesson
//     (Ching et al.): fewer, larger requests beat per-unit round trips.
//     RAID-0 arithmetic guarantees a contiguous file range touches each
//     object in one contiguous object extent, so the coalesced plan has at
//     most one request per object (a property the tests pin down). Units is
//     the uncoalesced plan — one request per stripe unit — for writers that
//     may not merge units. Layout is the one place that maps a file offset
//     to an object: the Lustre baseline (pfs), collio and scidata plan
//     through it too.
//
//   - Transfer: Engine fans the per-object requests out concurrently over
//     simulated processes, bounded by an in-flight window, so a transfer
//     spanning M servers pays roughly one round trip instead of M — see
//     Engine in engine.go.
//
//   - Redundancy: a Layout optionally carries a Scheme — N-way Replica
//     mirrors or a RAID-4-style XOR Parity column — and the engine fans
//     writes out redundantly, serves degraded reads that reconstruct lost
//     extents from the survivors, and rebuilds a dead server's objects onto
//     spares online (rebuild.go).
package stripe

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"

	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/portals"
	"lwfs/internal/storage"
)

// ErrBadLayout reports corrupt or truncated layout metadata.
var ErrBadLayout = errors.New("stripe: corrupt layout metadata")

// Scheme selects the redundancy family a layout carries. The zero value is
// plain RAID-0, so layouts decoded from the legacy wire format — and every
// Layout literal written before schemes existed — behave unchanged.
type Scheme uint8

const (
	// Raid0 stripes with no redundancy: one object per data column.
	Raid0 Scheme = iota
	// Replica keeps Copies full mirrors of every data column: Objs holds
	// Copies×Width objects, copy c of column i at Objs[c*Width+i]. Copy 0
	// is the primary the engine reads first.
	Replica
	// Parity is RAID-4-style: Width data columns plus one XOR parity
	// object at Objs[Width]. Byte x of the parity object is the XOR of
	// byte x of every data column, so any single lost object — data or
	// parity — reconstructs from the survivors.
	Parity
)

func (s Scheme) String() string {
	switch s {
	case Raid0:
		return "raid0"
	case Replica:
		return "replica"
	case Parity:
		return "parity"
	}
	return fmt.Sprintf("scheme(%d)", uint8(s))
}

// Layout describes one striped logical object: Scheme over Objs in units of
// Unit bytes, with a logical Size maintained by the owner. Copies is the
// mirror count for Replica layouts and ignored otherwise.
//
// A data column may be a hole: every copy of it is the zero storage.ObjRef
// (encoded "obj 0 0 0"; object IDs start at 1, so no real object has it).
// A hole reads as an empty object — zeros inside the logical size — and is
// skipped by Targets and rebuilds; the owner allocates it before a write
// lands in it (Missing). Column 0 and the parity object are never holes.
type Layout struct {
	Size   int64
	Unit   int64
	Scheme Scheme
	Copies int
	Objs   []storage.ObjRef
}

// Width returns the number of data columns: the RAID-0 stride of the file's
// bytes, excluding replica copies and the parity object.
func (l Layout) Width() int {
	switch l.Scheme {
	case Replica:
		if l.Copies > 1 {
			return len(l.Objs) / l.Copies
		}
		return len(l.Objs)
	case Parity:
		return len(l.Objs) - 1
	default:
		return len(l.Objs)
	}
}

// ReplicaObj returns copy c of data column col (copy 0 is the primary; for
// non-replica layouts only c == 0 is meaningful).
func (l Layout) ReplicaObj(c, col int) storage.ObjRef { return l.Objs[c*l.Width()+col] }

// ParityObj returns the parity object of a Parity layout.
func (l Layout) ParityObj() storage.ObjRef { return l.Objs[l.Width()] }

// copies is how many objects back each data column.
func (l Layout) copies() int {
	if l.Scheme == Replica {
		return l.Copies
	}
	return 1
}

// IsHole reports whether ref is a hole: the zero ref an unallocated column
// holds in place of each of its objects.
func IsHole(ref storage.ObjRef) bool { return ref == storage.ObjRef{} }

// Missing returns the Objs index of every object of every hole column that
// the file range [off, off+length) touches: all copies of each such column,
// in the order Plan touches the columns. When the range touches no hole it
// returns nil without allocating, so a writer can ask on every write.
func (l Layout) Missing(off, length int64) []int {
	if length <= 0 || l.Unit <= 0 {
		return nil
	}
	w := int64(l.Width())
	first := off / l.Unit
	ncols := min((off+length-1)/l.Unit-first+1, w)
	var idxs []int
	for j := int64(0); j < ncols; j++ {
		col := int((first + j) % w)
		if !IsHole(l.Objs[col]) {
			continue
		}
		for c := 0; c < l.copies(); c++ {
			idxs = append(idxs, c*int(w)+col)
		}
	}
	return idxs
}

// group is the redundancy group object idx belongs to: its column under
// RAID-0 and Replica, whose copies back each other, and the one group of
// every object under Parity.
func (l Layout) group(idx int) int {
	if l.Scheme == Parity {
		return 0
	}
	return idx % l.Width()
}

// Related reports whether t hosts an object of idx's redundancy group other
// than idx itself: another copy of its column under Replica, any other
// member under Parity. A RAID-0 group is one object, and holes host nothing.
func (l Layout) Related(idx int, t storage.Target) bool {
	for j, o := range l.Objs {
		if j != idx && !IsHole(o) && storage.TargetOf(o) == t && l.group(j) == l.group(idx) {
			return true
		}
	}
	return false
}

// survives reports whether every byte of l stays readable without its
// objects on the lost servers: a group may lose all but one copy under
// Replica, one object under Parity, nothing under RAID-0.
func (l Layout) survives(lost []storage.Target) bool {
	spare, down := l.copies()-1, make([]int, l.Width())
	if l.Scheme == Parity {
		spare = 1
	}
	for i, o := range l.Objs {
		if g := l.group(i); !IsHole(o) && slices.Contains(lost, storage.TargetOf(o)) {
			if down[g]++; down[g] > spare {
				return false
			}
		}
	}
	return true
}

// Validate checks the layout's arithmetic invariants — the ones Locate and
// Plan divide by. Decode runs it on every parsed layout so corrupt metadata
// surfaces as ErrBadLayout instead of a divide-by-zero panic later.
func (l Layout) Validate() error {
	switch {
	case l.Unit <= 0:
		return fmt.Errorf("%w: stripe unit %d", ErrBadLayout, l.Unit)
	case l.Size < 0:
		return fmt.Errorf("%w: size %d", ErrBadLayout, l.Size)
	case len(l.Objs) == 0:
		return fmt.Errorf("%w: no objects", ErrBadLayout)
	}
	switch l.Scheme {
	case Raid0:
	case Replica:
		if l.Copies < 2 || len(l.Objs)%l.Copies != 0 {
			return fmt.Errorf("%w: %d objects for %d replica copies", ErrBadLayout, len(l.Objs), l.Copies)
		}
	case Parity:
		if len(l.Objs) < 2 {
			return fmt.Errorf("%w: parity layout needs a data column and a parity object", ErrBadLayout)
		}
	default:
		return fmt.Errorf("%w: unknown scheme %d", ErrBadLayout, l.Scheme)
	}
	w := l.Width()
	for col := 0; col < w; col++ {
		holes := 0
		for c := 0; c < l.copies(); c++ {
			ref := l.Objs[c*w+col]
			switch {
			case IsHole(ref):
				holes++
			case ref.ID == 0:
				return fmt.Errorf("%w: object id 0 in column %d", ErrBadLayout, col)
			}
		}
		switch {
		case holes == 0:
		case holes < l.copies():
			return fmt.Errorf("%w: column %d is a hole in only some copies", ErrBadLayout, col)
		case col == 0:
			return fmt.Errorf("%w: column 0 is a hole", ErrBadLayout)
		}
	}
	if l.Scheme == Parity {
		switch p := l.ParityObj(); {
		case IsHole(p):
			return fmt.Errorf("%w: parity object is a hole", ErrBadLayout)
		case p.ID == 0:
			return fmt.Errorf("%w: parity object id 0", ErrBadLayout)
		}
	}
	return nil
}

// Encode renders the layout in its persistent wire format. RAID-0 layouts
// emit exactly the format lwfspfs has always written, so existing file
// systems decode unchanged; redundant schemes insert one extra "scheme"
// line that legacy-era data never contains.
func (l Layout) Encode() []byte {
	return l.AppendEncode(make([]byte, 0, 48+24*len(l.Objs)))
}

// AppendEncode appends the layout's Encode bytes to b and returns the
// extended buffer, so a writer that flushes a layout often can keep one.
func (l Layout) AppendEncode(b []byte) []byte {
	b = strconv.AppendInt(append(b, "size "...), l.Size, 10)
	b = strconv.AppendInt(append(b, "\nstripeunit "...), l.Unit, 10)
	b = append(b, '\n')
	switch l.Scheme {
	case Replica:
		b = strconv.AppendInt(append(b, "scheme replica "...), int64(l.Copies), 10)
		b = append(b, '\n')
	case Parity:
		b = append(b, "scheme parity\n"...)
	}
	for _, o := range l.Objs {
		b = strconv.AppendInt(append(b, "obj "...), int64(o.Node), 10)
		b = strconv.AppendInt(append(b, ' '), int64(o.Port), 10)
		b = strconv.AppendUint(append(b, ' '), uint64(o.ID), 10)
		b = append(b, '\n')
	}
	return b
}

// Decode parses a layout previously produced by Encode. Metadata without a
// "scheme" line decodes as plain RAID-0 (the legacy format). The parsed
// layout is validated: truncated or nonsensical metadata (zero stripe unit,
// no objects, bad replica arity, a partial or forbidden hole) returns
// ErrBadLayout, and so do bytes Encode would not write back identically.
func Decode(data []byte) (Layout, error) {
	var l Layout
	rest := data
	line := func() []byte {
		ln, r, _ := bytes.Cut(rest, []byte("\n"))
		rest = r
		return ln
	}
	var err error
	if l.Size, err = intAfter(line(), "size "); err != nil {
		return Layout{}, err
	}
	if l.Unit, err = intAfter(line(), "stripeunit "); err != nil {
		return Layout{}, err
	}
	if bytes.HasPrefix(rest, []byte("scheme ")) {
		switch ln := line(); {
		case bytes.HasPrefix(ln, []byte("scheme replica ")):
			l.Scheme = Replica
			copies, err := intAfter(ln, "scheme replica ")
			if err != nil {
				return Layout{}, err
			}
			l.Copies = int(copies)
		case string(ln) == "scheme parity":
			l.Scheme = Parity
		default:
			return Layout{}, fmt.Errorf("%w: %q", ErrBadLayout, ln)
		}
	}
	l.Objs = make([]storage.ObjRef, 0, bytes.Count(rest, []byte("\n")))
	for len(rest) > 0 {
		f, ok := bytes.CutPrefix(line(), []byte("obj "))
		node, f, _ := bytes.Cut(f, []byte(" "))
		port, id, _ := bytes.Cut(f, []byte(" "))
		n, err1 := strconv.Atoi(string(node))
		pt, err2 := strconv.Atoi(string(port))
		i, err3 := strconv.ParseUint(string(id), 10, 64)
		if !ok || err1 != nil || err2 != nil || err3 != nil {
			return Layout{}, fmt.Errorf("%w: bad object line", ErrBadLayout)
		}
		l.Objs = append(l.Objs, storage.ObjRef{
			Node: netsim.NodeID(n),
			Port: portals.Index(pt),
			ID:   osd.ObjectID(i),
		})
	}
	if err := l.Validate(); err != nil {
		return Layout{}, err
	}
	// The canonical bytes are rebuilt on the stack: a layout of up to
	// about 30 objects fits, and only a wider one spills to the heap.
	var canon [512]byte
	if !bytes.Equal(l.AppendEncode(canon[:0]), data) {
		return Layout{}, fmt.Errorf("%w: not in canonical form", ErrBadLayout)
	}
	return l, nil
}

// intAfter parses the integer that follows prefix on a record line.
func intAfter(line []byte, prefix string) (int64, error) {
	v, ok := bytes.CutPrefix(line, []byte(prefix))
	if !ok {
		return 0, fmt.Errorf("%w: want %q, got %q", ErrBadLayout, prefix, line)
	}
	n, err := strconv.ParseInt(string(v), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadLayout, err)
	}
	return n, nil
}

// Locate maps a file offset to (data column index, object offset) under
// RAID-0 arithmetic over the Width data columns: unit w of the file lives
// on column w mod M at unit slot w div M. Redundancy is invisible here —
// replica copies mirror their column and parity hangs off the side.
func (l Layout) Locate(off int64) (obj int, objOff int64) {
	u := l.Unit
	m := int64(l.Width())
	w := off / u
	return int(w % m), (w/m)*u + off%u
}

// ObjectLength returns the byte length object idx holds when the layout is
// filled to Size: data columns hold their round-robin share (replica copies
// mirror their column), and the parity object is as long as the longest
// data column.
func (l Layout) ObjectLength(idx int) int64 {
	w := l.Width()
	switch l.Scheme {
	case Replica:
		return l.columnLength(idx % w)
	case Parity:
		if idx == w {
			var max int64
			for c := 0; c < w; c++ {
				if n := l.columnLength(c); n > max {
					max = n
				}
			}
			return max
		}
	}
	return l.columnLength(idx)
}

// columnLength is the RAID-0 share of data column col implied by Size.
func (l Layout) columnLength(col int) int64 {
	if l.Size <= 0 || l.Unit <= 0 {
		return 0
	}
	w := int64(l.Width())
	u := l.Unit
	units := (l.Size + u - 1) / u // total units, last possibly partial
	mine := units / w
	if int64(col) < units%w {
		mine++
	}
	if mine == 0 {
		return 0
	}
	last := (mine-1)*w + int64(col) // global index of my last unit
	end := last*u + u
	if end > l.Size {
		end = l.Size
	}
	return (mine-1)*u + (end - last*u)
}

// Piece is one stripe unit's worth (or less) of a request: a contiguous
// run of file bytes and where they sit in the object.
type Piece struct {
	FileOff int64 // offset of the first byte in the logical file
	ObjOff  int64 // offset of the first byte in the object
	Len     int64
}

// Request is one coalesced transfer against one object: a single contiguous
// object extent [Off, Off+Len) whose first byte is file byte FileOff. Its
// Pieces, one per stripe unit, are contiguous in object space but Width×Unit
// apart in file space — the gather/scatter the engine performs around each
// RPC. A request describes its pieces rather than listing them, so a plan is
// one allocation however many units it spans.
type Request struct {
	Obj     int   // data column index (Layout.Objs index for copy 0)
	Off     int64 // object offset of the extent's first byte
	Len     int64 // extent length
	FileOff int64 // file offset of the extent's first byte

	unit, stride int64 // the layout's stripe unit, and Width×Unit
}

// Plan maps the file range [off, off+length) onto the data columns, merging
// every unit that lands on the same column into one Request per contiguous
// object extent. For a contiguous range (the only kind expressible here)
// RAID-0 arithmetic yields exactly one Request per touched column; requests
// come back in first-touch order, so fan-out order is deterministic. The
// plan is redundancy-blind: Request.Obj is a data column index, and the
// engine expands it to replica copies or a parity update as the scheme
// demands.
func (l Layout) Plan(off, length int64) []Request { return l.appendPlan(nil, off, length) }

// appendPlan appends Plan(off, length) to dst: the engine plans into a
// transfer record's slice, so a warm transfer makes no plan.
func (l Layout) appendPlan(dst []Request, off, length int64) []Request {
	if length <= 0 || l.Unit <= 0 || l.Width() <= 0 {
		return dst
	}
	u, w, end := l.Unit, int64(l.Width()), off+length
	first, last := off/u, (end-1)/u // stripe units touched
	n := min(last-first+1, w)
	if len(dst)+int(n) > cap(dst) { // one allocation, even under -race
		dst = append(make([]Request, 0, len(dst)+int(n)), dst...)
	}
	for j := int64(0); j < n; j++ {
		a := first + j        // the column's first unit in the range
		z := a + (last-a)/w*w // and its last
		fo := max(off, a*u)   // where its bytes start in the file
		tail := (z+1)*u - min(end, (z+1)*u)
		obj, objOff := l.Locate(fo)
		dst = append(dst, Request{Obj: obj, Off: objOff, Len: ((z-a)/w+1)*u - (fo - a*u) - tail,
			FileOff: fo, unit: u, stride: w * u})
	}
	return dst
}

// Units maps [off, off+length) like Plan but coalesces nothing: one
// single-piece Request per stripe unit touched, in file order. It is the plan
// of a writer that may not merge units — a Lustre shared-file writer under
// per-unit extent locks, or lwfspfs's serial arm (E17's baseline).
func (l Layout) Units(off, length int64) []Request {
	if length <= 0 || l.Unit <= 0 || l.Width() <= 0 {
		return nil
	}
	reqs := make([]Request, (off+length-1)/l.Unit-off/l.Unit+1)
	for i := range reqs {
		reqs[i] = l.UnitAt(off, length, i)
	}
	return reqs
}

// UnitAt is Units(off, length)[i], computed from i alone: a writer that fans
// out one request per unit needs no plan to index.
func (l Layout) UnitAt(off, length int64, i int) Request {
	u := l.Unit
	fo := max(off, (off/u+int64(i))*u)
	obj, objOff := l.Locate(fo)
	return Request{Obj: obj, Off: objOff, Len: min(fo/u*u+u, off+length) - fo, FileOff: fo,
		unit: u, stride: int64(l.Width()) * u}
}

// Pieces yields the request's pieces in file order: the first starts at
// FileOff, and each next one at the start of the column's next stripe unit.
func (r Request) Pieces(yield func(Piece) bool) {
	fo := r.FileOff
	for done := int64(0); done < r.Len; {
		k := min(r.unit-fo%r.unit, r.Len-done)
		if !yield(Piece{FileOff: fo, ObjOff: r.Off + done, Len: k}) {
			return
		}
		done += k
		fo += r.stride - fo%r.unit
	}
}

// Gather assembles the payload for one write request from the file payload
// starting at file offset off. A request of one piece is already contiguous
// in the file, so it is a slice of the caller's payload: a sub-slice of its
// bytes, which servers copy on store, a cut of its seeded run, or synthetic.
// A longer one is assembled piece by piece into object order, in a fresh
// buffer, unless the payload is synthetic.
func (r Request) Gather(off int64, payload netsim.Payload) netsim.Payload {
	if r.FileOff%r.unit+r.Len <= r.unit || payload.Synthetic() {
		return payload.Slice(r.FileOff-off, r.Len)
	}
	buf := make([]byte, r.Len)
	for pc := range r.Pieces {
		payload.Slice(pc.FileOff-off, pc.Len).CopyTo(buf[pc.ObjOff-r.Off:])
	}
	return netsim.BytesPayload(buf)
}

// Scatter distributes one read request's result into the file buffer buf
// (which covers file offsets [off, off+len(buf))). Short object reads —
// end-of-object inside the extent — fill only the bytes that arrived.
func (r Request) Scatter(off int64, buf []byte, got netsim.Payload) {
	if got.Synthetic() {
		return
	}
	for pc := range r.Pieces {
		at := pc.ObjOff - r.Off
		if at >= got.Size {
			return
		}
		got.Slice(at, min(pc.Len, got.Size-at)).CopyTo(buf[pc.FileOff-off:])
	}
}
