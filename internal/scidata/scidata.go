// Package scidata is an HDF5/netCDF-flavored scientific-data library built
// directly on the LWFS core — the top of the paper's Figure 2 stack
// ("HDF-5", "Chem-I/O") and the §6 claim that such libraries "can make
// better use of the underlying hardware ... if they bypass the
// intermediate layers and interact directly with the LWFS core
// components". There is no parallel file system underneath this package:
// datasets are self-describing groups of storage objects plus one naming
// entry.
//
// The model is deliberately small but real:
//
//   - A File is a naming directory plus a container.
//   - A Dataset is an n-dimensional typed array in row-major order,
//     chunked along dimension 0 into one object per chunk, placed
//     round-robin across storage servers (so full-row slabs engage many
//     servers in parallel).
//   - A header object per dataset records dtype, dims, chunking and the
//     data-object references; named attributes ride on the header object's
//     attribute table.
//   - Hyperslab reads and writes (start/count per dimension) decompose
//     into contiguous row runs and move through the server-directed paths.
package scidata

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"

	"lwfs/internal/authz"
	"lwfs/internal/core"
	"lwfs/internal/naming"
	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/stripe"
)

// Dtype is a dataset element type.
type Dtype string

// Supported element types.
const (
	Float64 Dtype = "float64"
	Float32 Dtype = "float32"
	Int64   Dtype = "int64"
	Int32   Dtype = "int32"
	Uint8   Dtype = "uint8"
)

// Size returns the element size in bytes (0 for unknown types).
func (t Dtype) Size() int64 {
	switch t {
	case Float64, Int64:
		return 8
	case Float32, Int32:
		return 4
	case Uint8:
		return 1
	default:
		return 0
	}
}

// Errors reported by the library.
var (
	ErrBadDtype     = errors.New("scidata: unknown dtype")
	ErrBadDims      = errors.New("scidata: invalid dimensions")
	ErrBadSlab      = errors.New("scidata: hyperslab out of bounds")
	ErrBadHeader    = errors.New("scidata: corrupt dataset header")
	ErrSizeMismatch = errors.New("scidata: payload size does not match slab")
)

// File is an open scientific-data file: a naming directory + container.
type File struct {
	c    *core.Client
	root string
	caps core.CapSet
}

// Create makes a new file rooted at dir (the client must be logged in). A
// fresh container scopes its access control.
func Create(p *sim.Proc, c *core.Client, dir string) (*File, error) {
	cid, err := c.CreateContainer(p)
	if err != nil {
		return nil, err
	}
	caps, err := c.GetCaps(p, cid, authz.AllOps...)
	if err != nil {
		return nil, err
	}
	// mkdir -p: create every missing ancestor.
	parts := strings.Split(strings.Trim(dir, "/"), "/")
	path := ""
	for _, part := range parts {
		path += "/" + part
		if err := c.Mkdir(p, path); err != nil && !errors.Is(err, naming.ErrExists) {
			return nil, err
		}
	}
	return &File{c: c, root: dir, caps: caps}, nil
}

// Open opens an existing file given its directory and container (the
// container ID travels out of band, like a capability). It requests full
// capabilities and falls back to read-only access when the container's
// policy grants less — an analyst with read/list access opens the same
// file a model wrote.
func Open(p *sim.Proc, c *core.Client, dir string, cid authz.ContainerID) (*File, error) {
	caps, err := c.GetCaps(p, cid, authz.AllOps...)
	if errors.Is(err, authz.ErrDenied) {
		caps, err = c.GetCaps(p, cid, authz.OpRead, authz.OpList)
	}
	if err != nil {
		return nil, err
	}
	return &File{c: c, root: dir, caps: caps}, nil
}

// Container returns the file's container ID.
func (f *File) Container() authz.ContainerID { return f.caps.Container }

// Datasets lists the dataset names in the file.
func (f *File) Datasets(p *sim.Proc) ([]string, error) {
	return f.c.ListNames(p, f.root)
}

// Options tune dataset layout.
type Options struct {
	// ChunkRows is the number of dim-0 rows per storage object (default:
	// spread the dataset over all storage servers).
	ChunkRows int64
}

// Dataset is an open n-dimensional array.
type Dataset struct {
	f         *File
	Name      string
	Type      Dtype
	Dims      []int64
	chunkRows int64
	header    storage.ObjRef
	objs      []storage.ObjRef
}

// rowBytes is the byte size of one dim-0 row (the product of the trailing
// dimensions times the element size).
func (d *Dataset) rowBytes() int64 {
	n := d.Type.Size()
	for _, dim := range d.Dims[1:] {
		n *= dim
	}
	return n
}

// NumChunks returns the number of backing objects.
func (d *Dataset) NumChunks() int { return len(d.objs) }

// CreateDataset allocates a dataset: data objects chunked along dim 0,
// a header object, and a naming entry — transactionally, so a failed
// create leaves nothing behind.
func (f *File) CreateDataset(p *sim.Proc, name string, t Dtype, dims []int64, opts Options) (*Dataset, error) {
	if t.Size() == 0 {
		return nil, fmt.Errorf("%w: %q", ErrBadDtype, t)
	}
	if len(dims) == 0 {
		return nil, ErrBadDims
	}
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("%w: %v", ErrBadDims, dims)
		}
	}
	d := &Dataset{f: f, Name: name, Type: t, Dims: append([]int64(nil), dims...)}
	if opts.ChunkRows > 0 {
		d.chunkRows = opts.ChunkRows
	} else {
		servers := int64(len(f.c.Servers()))
		d.chunkRows = (dims[0] + servers - 1) / servers
	}
	nchunks := int((dims[0] + d.chunkRows - 1) / d.chunkRows)

	tx := f.c.BeginTxn()
	for i := 0; i < nchunks; i++ {
		ref, err := f.c.CreateObjectTxn(p, f.c.Server(i), f.caps, tx)
		if err != nil {
			tx.Abort(p) //nolint:errcheck
			return nil, err
		}
		d.objs = append(d.objs, ref)
	}
	header, err := f.c.CreateObjectTxn(p, f.c.Server(0), f.caps, tx)
	if err != nil {
		tx.Abort(p) //nolint:errcheck
		return nil, err
	}
	d.header = header
	if _, err := f.c.Write(p, header, f.caps, 0, netsim.BytesPayload(d.encodeHeader())); err != nil {
		tx.Abort(p) //nolint:errcheck
		return nil, err
	}
	if err := f.c.CreateName(p, f.root+"/"+name, header, tx); err != nil {
		tx.Abort(p) //nolint:errcheck
		return nil, err
	}
	if err := tx.Commit(p); err != nil {
		return nil, err
	}
	return d, nil
}

// OpenDataset opens an existing dataset by name.
func (f *File) OpenDataset(p *sim.Proc, name string) (*Dataset, error) {
	e, err := f.c.Lookup(p, f.root+"/"+name)
	if err != nil {
		return nil, err
	}
	if e.IsDir {
		return nil, fmt.Errorf("scidata: dataset %q: %w", name, naming.ErrIsDir)
	}
	payload, err := f.c.Read(p, e.Refs[0], f.caps, 0, 64<<10)
	if err != nil {
		return nil, err
	}
	d, err := decodeHeader(payload.Bytes())
	if err != nil {
		return nil, err
	}
	d.f = f
	d.Name = name
	d.header = e.Refs[0]
	return d, nil
}

// encodeHeader renders the self-describing header.
func (d *Dataset) encodeHeader() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "scidata v1\ndtype %s\nchunkrows %d\ndims", d.Type, d.chunkRows)
	for _, dim := range d.Dims {
		fmt.Fprintf(&b, " %d", dim)
	}
	b.WriteString("\n")
	for _, o := range d.objs {
		fmt.Fprintf(&b, "chunk %d %d %d\n", o.Node, o.Port, uint64(o.ID))
	}
	return []byte(b.String())
}

// decodeHeader parses a header read back from storage. It accepts only bytes
// encodeHeader writes back identically, for a shape CreateDataset could have
// made (shapeOK): anything else is ErrBadHeader, not a later divide by zero
// or an out-of-range chunk.
func decodeHeader(data []byte) (*Dataset, error) {
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 4 || lines[0] != "scidata v1" {
		return nil, ErrBadHeader
	}
	d := &Dataset{}
	var dt string
	if _, err := fmt.Sscanf(lines[1], "dtype %s", &dt); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadHeader, err)
	}
	d.Type = Dtype(dt)
	if d.Type.Size() == 0 {
		return nil, fmt.Errorf("%w: dtype %q", ErrBadHeader, dt)
	}
	if _, err := fmt.Sscanf(lines[2], "chunkrows %d", &d.chunkRows); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadHeader, err)
	}
	dimFields := strings.Fields(lines[3])
	if len(dimFields) < 2 || dimFields[0] != "dims" {
		return nil, ErrBadHeader
	}
	for _, fld := range dimFields[1:] {
		var dim int64
		if _, err := fmt.Sscanf(fld, "%d", &dim); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadHeader, err)
		}
		d.Dims = append(d.Dims, dim)
	}
	for _, line := range lines[4:] {
		var node, port int
		var id uint64
		if _, err := fmt.Sscanf(line, "chunk %d %d %d", &node, &port, &id); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadHeader, err)
		}
		d.objs = append(d.objs, storage.ObjRef{
			Node: netsim.NodeID(node), Port: portals.Index(port), ID: osd.ObjectID(id),
		})
	}
	if !d.shapeOK() {
		return nil, fmt.Errorf("%w: dims %v, chunkrows %d, %d chunks", ErrBadHeader, d.Dims, d.chunkRows, len(d.objs))
	}
	if !bytes.Equal(d.encodeHeader(), data) {
		return nil, fmt.Errorf("%w: not in canonical form", ErrBadHeader)
	}
	return d, nil
}

// shapeOK reports whether the dims and chunking are ones CreateDataset could
// have written: positive, with byte sizes that fit an int64, and one object
// per chunk of chunkRows rows.
func (d *Dataset) shapeOK() bool {
	if d.chunkRows <= 0 {
		return false
	}
	n := d.Type.Size()
	for _, dim := range d.Dims {
		if dim <= 0 || n > math.MaxInt64/dim {
			return false
		}
		n *= dim
	}
	return d.chunkRows <= math.MaxInt64/d.rowBytes() && int64(len(d.objs)) == (d.Dims[0]-1)/d.chunkRows+1
}

// SetAttr attaches a named attribute (units, provenance, ...).
func (d *Dataset) SetAttr(p *sim.Proc, key, value string) error {
	return d.f.c.SetAttr(p, d.header, d.f.caps, key, value)
}

// GetAttr reads a named attribute.
func (d *Dataset) GetAttr(p *sim.Proc, key string) (string, error) {
	return d.f.c.GetAttr(p, d.header, d.f.caps, key)
}

// slabRun is one contiguous byte range of the dataset in row-major order.
type slabRun struct {
	off, n int64 // dataset byte offset and length
	base   int64 // the dataset offset the slab buffer's byte 0 has as this run sees it
}

// slabRuns decomposes a hyperslab (start/count per dim) into contiguous
// runs, and returns them with the slab's size in bytes. The innermost
// dimension is contiguous; outer dimensions iterate.
func (d *Dataset) slabRuns(start, count []int64) ([]slabRun, int64, error) {
	if len(start) != len(d.Dims) || len(count) != len(d.Dims) {
		return nil, 0, fmt.Errorf("%w: rank mismatch", ErrBadSlab)
	}
	es := d.Type.Size()
	total := es
	for i := range d.Dims {
		if start[i] < 0 || count[i] <= 0 || start[i]+count[i] > d.Dims[i] {
			return nil, 0, fmt.Errorf("%w: dim %d: start %d count %d of %d",
				ErrBadSlab, i, start[i], count[i], d.Dims[i])
		}
		total *= count[i]
	}
	// Strides in bytes, row-major.
	rank := len(d.Dims)
	strides := make([]int64, rank)
	strides[rank-1] = es
	for i := rank - 2; i >= 0; i-- {
		strides[i] = strides[i+1] * d.Dims[i+1]
	}
	// Iterate over all index tuples of the outer dims; the last dim is the
	// run. Merge runs that happen to be adjacent (e.g. full rows).
	var runs []slabRun
	idx := make([]int64, rank-1)
	rowLen := count[rank-1] * es
	var bufOff int64
	for {
		off := start[rank-1] * strides[rank-1]
		for i := 0; i < rank-1; i++ {
			off += (start[i] + idx[i]) * strides[i]
		}
		if n := len(runs); n > 0 && runs[n-1].off+runs[n-1].n == off {
			runs[n-1].n += rowLen
		} else {
			runs = append(runs, slabRun{off: off, n: rowLen, base: off - bufOff})
		}
		bufOff += rowLen
		// Odometer over the outer dimensions.
		i := rank - 2
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < count[i] {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return runs, total, nil
}

// layout is the dataset as a stripe layout one unit per object: chunk i
// holds the chunkRows rows from row i*chunkRows on. Every slab run lies
// inside the dataset, so it maps to one request per chunk it touches.
func (d *Dataset) layout() stripe.Layout {
	return stripe.Layout{Unit: d.chunkRows * d.rowBytes(), Objs: d.objs}
}

// WriteSlab writes a hyperslab. payload.Size must equal the slab's byte
// size; real payload bytes are stored row-run by row-run.
func (d *Dataset) WriteSlab(p *sim.Proc, start, count []int64, payload netsim.Payload) error {
	runs, total, err := d.slabRuns(start, count)
	if err != nil {
		return err
	}
	if payload.Size != total {
		return fmt.Errorf("%w: slab %d bytes, payload %d", ErrSizeMismatch, total, payload.Size)
	}
	l := d.layout()
	for _, run := range runs {
		for _, rq := range l.Plan(run.off, run.n) {
			if _, err := d.f.c.Write(p, l.Objs[rq.Obj], d.f.caps, rq.Off, rq.Gather(run.base, payload)); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadSlab reads a hyperslab into a payload (real bytes when any chunk
// holds real data).
func (d *Dataset) ReadSlab(p *sim.Proc, start, count []int64) (netsim.Payload, error) {
	runs, total, err := d.slabRuns(start, count)
	if err != nil {
		return netsim.Payload{}, err
	}
	l := d.layout()
	var buf []byte
	for _, run := range runs {
		for _, rq := range l.Plan(run.off, run.n) {
			got, err := d.f.c.Read(p, l.Objs[rq.Obj], d.f.caps, rq.Off, rq.Len)
			if err != nil {
				return netsim.Payload{}, err
			}
			if !got.Synthetic() && buf == nil {
				buf = make([]byte, total)
			}
			rq.Scatter(run.base, buf, got)
		}
	}
	return netsim.Payload{Size: total, Data: buf}, nil
}
