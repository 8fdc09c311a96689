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
//     most one request per object (a property the tests pin down).
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
	"errors"
	"fmt"
	"strings"

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
	return nil
}

// Encode renders the layout in its persistent wire format. RAID-0 layouts
// emit exactly the format lwfspfs has always written, so existing file
// systems decode unchanged; redundant schemes insert one extra "scheme"
// line that legacy-era data never contains.
func (l Layout) Encode() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "size %d\nstripeunit %d\n", l.Size, l.Unit)
	switch l.Scheme {
	case Replica:
		fmt.Fprintf(&b, "scheme replica %d\n", l.Copies)
	case Parity:
		fmt.Fprintf(&b, "scheme parity\n")
	}
	for _, o := range l.Objs {
		fmt.Fprintf(&b, "obj %d %d %d\n", o.Node, o.Port, uint64(o.ID))
	}
	return []byte(b.String())
}

// Decode parses a layout previously produced by Encode. Metadata without a
// "scheme" line decodes as plain RAID-0 (the legacy format). The parsed
// layout is validated: truncated or nonsensical metadata (zero stripe unit,
// no objects, bad replica arity) returns ErrBadLayout.
func Decode(data []byte) (Layout, error) {
	var l Layout
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 2 {
		return l, ErrBadLayout
	}
	if _, err := fmt.Sscanf(lines[0], "size %d", &l.Size); err != nil {
		return l, fmt.Errorf("%w: %v", ErrBadLayout, err)
	}
	if _, err := fmt.Sscanf(lines[1], "stripeunit %d", &l.Unit); err != nil {
		return l, fmt.Errorf("%w: %v", ErrBadLayout, err)
	}
	rest := lines[2:]
	if len(rest) > 0 && strings.HasPrefix(rest[0], "scheme ") {
		switch {
		case strings.HasPrefix(rest[0], "scheme replica "):
			l.Scheme = Replica
			if _, err := fmt.Sscanf(rest[0], "scheme replica %d", &l.Copies); err != nil {
				return Layout{}, fmt.Errorf("%w: %v", ErrBadLayout, err)
			}
		case rest[0] == "scheme parity":
			l.Scheme = Parity
		default:
			return Layout{}, fmt.Errorf("%w: %q", ErrBadLayout, rest[0])
		}
		rest = rest[1:]
	}
	for _, line := range rest {
		var node, port int
		var id uint64
		if _, err := fmt.Sscanf(line, "obj %d %d %d", &node, &port, &id); err != nil {
			return Layout{}, fmt.Errorf("%w: %v", ErrBadLayout, err)
		}
		l.Objs = append(l.Objs, storage.ObjRef{
			Node: netsim.NodeID(node),
			Port: portals.Index(port),
			ID:   osd.ObjectID(id),
		})
	}
	if err := l.Validate(); err != nil {
		return Layout{}, err
	}
	return l, nil
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
// object extent [Off, Off+Len) assembled from Pieces of the file. Pieces are
// contiguous in object space but interleaved (stride M×unit) in file space —
// the gather/scatter the engine performs around each RPC.
type Request struct {
	Obj    int   // data column index (Layout.Objs index for copy 0)
	Off    int64 // object offset of the extent's first byte
	Len    int64 // extent length
	Pieces []Piece
}

// Plan maps the file range [off, off+length) onto the data columns, merging
// every unit that lands on the same column into one Request per contiguous
// object extent. For a contiguous range (the only kind expressible here)
// RAID-0 arithmetic yields exactly one Request per touched column; requests
// come back in first-touch order, so fan-out order is deterministic. The
// plan is redundancy-blind: Request.Obj is a data column index, and the
// engine expands it to replica copies or a parity update as the scheme
// demands.
func (l Layout) Plan(off, length int64) []Request {
	if length <= 0 || l.Unit <= 0 || l.Width() <= 0 {
		return nil
	}
	u, w := l.Unit, int64(l.Width())
	first := off / u
	npieces := (off+length-1)/u - first + 1 // stripe units touched, one Piece each
	ncols := min(npieces, w)                // columns touched, one Request each
	reqs := make([]Request, ncols)
	pieces := make([]Piece, npieces)
	// The j-th column touched holds units first+j, first+j+w, ...: its request
	// gets that many slots of the one array, capped against its neighbour.
	for j, at := int64(0), int64(0); j < ncols; j++ {
		n := (npieces - j + w - 1) / w
		reqs[j].Pieces = pieces[at : at : at+n]
		at += n
	}
	for cur := off; cur < off+length; {
		idx, objOff := l.Locate(cur)
		n := u - cur%u
		if n > off+length-cur {
			n = off + length - cur
		}
		r := &reqs[(cur/u-first)%w]
		if len(r.Pieces) == 0 {
			r.Obj, r.Off = idx, objOff
		}
		r.Pieces = append(r.Pieces, Piece{FileOff: cur, ObjOff: objOff, Len: n})
		r.Len += n
		cur += n
	}
	return reqs
}

// Gather assembles the payload for one write request from the file payload
// starting at file offset off. Synthetic payloads (no backing bytes) stay
// synthetic; sized ones are copied piece by piece into object order. A
// request of one piece is already contiguous in the file, so it is returned
// as a sub-slice of the caller's bytes, not a copy: the payload is only read
// (servers copy on store) for as long as the write call blocks.
func (r Request) Gather(off int64, payload netsim.Payload) netsim.Payload {
	if payload.Data == nil {
		return netsim.SyntheticPayload(r.Len)
	}
	if len(r.Pieces) == 1 {
		pc := r.Pieces[0]
		return netsim.BytesPayload(payload.Data[pc.FileOff-off : pc.FileOff-off+pc.Len])
	}
	buf := make([]byte, r.Len)
	for _, pc := range r.Pieces {
		copy(buf[pc.ObjOff-r.Off:], payload.Data[pc.FileOff-off:pc.FileOff-off+pc.Len])
	}
	return netsim.BytesPayload(buf)
}

// Scatter distributes one read request's result into the file buffer buf
// (which covers file offsets [off, off+len(buf))). Short object reads —
// end-of-object inside the extent — copy only the bytes that arrived.
func (r Request) Scatter(off int64, buf []byte, got netsim.Payload) {
	if got.Data == nil {
		return
	}
	avail := int64(len(got.Data))
	for _, pc := range r.Pieces {
		n := pc.Len
		if rem := avail - (pc.ObjOff - r.Off); rem < n {
			n = rem
		}
		if n <= 0 {
			continue
		}
		copy(buf[pc.FileOff-off:], got.Data[pc.ObjOff-r.Off:pc.ObjOff-r.Off+n])
	}
}
