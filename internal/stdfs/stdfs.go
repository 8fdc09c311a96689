// Package stdfs adapts a mounted lwfspfs file system to Go's standard
// library: FS implements fs.FS, fs.ReadDirFS and fs.StatFS, and its file
// handles implement fs.File, fs.ReadDirFile, io.ReaderAt, io.WriterAt,
// io.Writer, io.Seeker and io.Closer — so stock Go code (fs.WalkDir,
// io.Copy, fstest.TestFS, anything taking an fs.FS) runs unmodified
// against the simulated parallel file system.
//
// # Proc binding
//
// Every lwfspfs call takes a *sim.Proc — the cooperative simulation
// process issuing it — as its first argument, while the standard
// interfaces take none. The facade resolves this by binding one proc at
// construction: stdfs.New(p, pfs) returns an FS whose every method call
// runs on p. The discipline that follows:
//
//   - An FS and the handles it opens may only be used from the goroutine
//     of the proc they are bound to, while that proc is running. They are
//     not safe to share across procs — not because of data races, but
//     because issuing a blocking simulated RPC on somebody else's proc
//     corrupts the simulation's cooperative scheduling.
//   - For concurrent workloads (replay workers, per-rank writers), give
//     each proc its own view with New(p, pfs) over the same mount, whose
//     POSIX locking makes cross-proc file access safe.
//
// fs.FS is read-only by design; writes go through the extension methods
// Create, OpenFile, Mkdir and Remove, mirroring the os package's shape.
//
// The facade records nothing: the example programs whose traces ship under
// internal/trace/testdata add their events to a trace.Recorder by hand.
// ReplayMount adapts the facade to the replayer's Mount interface so traces
// can be re-executed against any mount at any concurrency.
package stdfs

import (
	"errors"
	"io"
	"io/fs"
	"maps"
	gopath "path"
	"sort"
	"time"
	"unsafe"
	"weak"

	"lwfs/internal/lwfspfs"
	"lwfs/internal/naming"
	"lwfs/internal/netsim"
	"lwfs/internal/sim"
	"lwfs/internal/trace"
)

// FS is the facade over one mounted lwfspfs.FS, bound to a single proc.
type FS struct {
	p      *sim.Proc
	pfs    *lwfspfs.FS
	seeded seededMemo
}

// seededMemo hands every seeded write of one (seed, length) the buffer the
// first such write generated, so replay clones on one mount expand their
// shared content once and their files share its frozen bytes. An entry is
// weak: it names a buffer only while something else (a device extent, a
// write in flight) still holds it, so the memo pins nothing. Dead entries
// are dropped once the map has doubled since the last sweep.
type seededMemo struct {
	bufs  map[seededKey]weak.Pointer[byte]
	swept int // len(bufs) after the last sweep
}

type seededKey struct {
	seed uint64
	n    int64
}

// data returns trace.DataFor(seed, n), shared: the caller must not modify it.
func (m *seededMemo) data(seed uint64, n int64) []byte {
	k := seededKey{seed, n}
	if b := m.bufs[k].Value(); b != nil {
		return unsafe.Slice(b, n)
	}
	data := trace.DataFor(seed, n)
	if len(data) == 0 {
		return data
	}
	if len(m.bufs) >= 2*m.swept {
		maps.DeleteFunc(m.bufs, func(_ seededKey, w weak.Pointer[byte]) bool { return w.Value() == nil })
		m.swept = len(m.bufs)
	}
	m.bufs[k] = weak.Make(&data[0])
	return data
}

// New binds a mounted file system to the proc whose goroutine will call
// the facade. See the package comment for the single-proc discipline.
func New(p *sim.Proc, pfs *lwfspfs.FS) *FS {
	return &FS{p: p, pfs: pfs, seeded: seededMemo{bufs: map[seededKey]weak.Pointer[byte]{}}}
}

// Proc returns the bound proc.
func (x *FS) Proc() *sim.Proc { return x.p }

// abs validates an fs.FS-style name and converts it to a mount path.
func (x *FS) abs(op, name string) (string, error) {
	if !fs.ValidPath(name) || hidden(name) {
		if !fs.ValidPath(name) {
			return "", &fs.PathError{Op: op, Path: name, Err: fs.ErrInvalid}
		}
		return "", &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
	}
	if name == "." {
		return "/", nil
	}
	return "/" + name, nil
}

// hidden hides the mount's superblock from the standard-library view.
func hidden(name string) bool { return gopath.Base(name) == ".lwfspfs" }

// mapErr translates naming-service errors to the fs package's sentinels so
// errors.Is(err, fs.ErrNotExist) and friends work.
func mapErr(err error) error {
	switch {
	case errors.Is(err, naming.ErrNotFound):
		return fs.ErrNotExist
	case errors.Is(err, naming.ErrExists):
		return fs.ErrExist
	case errors.Is(err, naming.ErrBadPath):
		return fs.ErrInvalid
	default:
		return err
	}
}

func wrap(op, name string, err error) error {
	if err == nil {
		return nil
	}
	return &fs.PathError{Op: op, Path: name, Err: mapErr(err)}
}

// Open opens a file or directory for reading (fs.FS).
func (x *FS) Open(name string) (fs.File, error) {
	pth, err := x.abs("open", name)
	if err != nil {
		return nil, err
	}
	info, err := x.pfs.Stat(x.p, pth)
	if err != nil {
		return nil, wrap("open", name, err)
	}
	if info.IsDir {
		return &Dir{fsys: x, name: name}, nil
	}
	f, err := x.pfs.Open(x.p, pth)
	if err != nil {
		return nil, wrap("open", name, err)
	}
	return &File{fsys: x, name: name, f: f}, nil
}

// Stat resolves a name (fs.StatFS).
func (x *FS) Stat(name string) (fs.FileInfo, error) {
	pth, err := x.abs("stat", name)
	if err != nil {
		return nil, err
	}
	info, err := x.pfs.Stat(x.p, pth)
	if err != nil {
		return nil, wrap("stat", name, err)
	}
	return fileInfo{name: gopath.Base(name), size: info.Size, dir: info.IsDir}, nil
}

// ReadDir lists a directory in name order (fs.ReadDirFS).
func (x *FS) ReadDir(name string) ([]fs.DirEntry, error) {
	pth, err := x.abs("readdir", name)
	if err != nil {
		return nil, err
	}
	// Distinguish "not a directory" from "does not exist" up front: the
	// naming service's ListNames answers both with errors the fs layer
	// maps identically badly otherwise.
	info, err := x.pfs.Stat(x.p, pth)
	if err != nil {
		return nil, wrap("readdir", name, err)
	}
	if !info.IsDir {
		return nil, &fs.PathError{Op: "readdir", Path: name, Err: errors.New("not a directory")}
	}
	names, err := x.pfs.List(x.p, pth)
	if err != nil {
		return nil, wrap("readdir", name, err)
	}
	sort.Strings(names)
	ents := make([]fs.DirEntry, len(names))
	for i, base := range names {
		child := base
		if name != "." {
			child = name + "/" + base
		}
		ents[i] = &dirEntry{fsys: x, name: child, base: base}
	}
	return ents, nil
}

// Create makes a new file open for writing (an os.Create-shaped extension;
// fs.FS itself is read-only).
func (x *FS) Create(name string) (*File, error) {
	pth, err := x.abs("create", name)
	if err != nil {
		return nil, err
	}
	f, err := x.pfs.Create(x.p, pth)
	if err != nil {
		return nil, wrap("create", name, err)
	}
	return &File{fsys: x, name: name, f: f, writable: true}, nil
}

// OpenFile opens an existing file for reading and writing.
func (x *FS) OpenFile(name string) (*File, error) {
	pth, err := x.abs("openfile", name)
	if err != nil {
		return nil, err
	}
	f, err := x.pfs.Open(x.p, pth)
	if err != nil {
		return nil, wrap("openfile", name, err)
	}
	return &File{fsys: x, name: name, f: f, writable: true}, nil
}

// Mkdir creates a directory.
func (x *FS) Mkdir(name string) error {
	pth, err := x.abs("mkdir", name)
	if err != nil {
		return err
	}
	if err := x.pfs.Mkdir(x.p, pth); err != nil {
		return wrap("mkdir", name, err)
	}
	return nil
}

// Remove unlinks a file and frees its objects.
func (x *FS) Remove(name string) error {
	pth, err := x.abs("remove", name)
	if err != nil {
		return err
	}
	if err := x.pfs.Remove(x.p, pth); err != nil {
		return wrap("remove", name, err)
	}
	return nil
}

// File is an open file handle. It implements fs.File plus io.ReaderAt,
// io.WriterAt, io.Writer and io.Seeker; Read/Write advance one shared
// position. Like the FS that opened it, a handle is bound to that FS's
// proc.
type File struct {
	fsys     *FS
	name     string // fs.FS-style name
	f        *lwfspfs.File
	pos      int64
	writable bool
	closed   bool
}

// Handle returns the underlying lwfspfs file, for callers that need
// simulator-level detail (layouts, metadata refs) the standard interfaces
// do not carry.
func (f *File) Handle() *lwfspfs.File { return f.f }

// Stat describes the open file.
func (f *File) Stat() (fs.FileInfo, error) {
	if f.closed {
		return nil, wrap("stat", f.name, fs.ErrClosed)
	}
	return fileInfo{name: gopath.Base(f.name), size: f.f.Size()}, nil
}

// Read reads from the current position.
func (f *File) Read(b []byte) (int, error) {
	n, err := f.ReadAt(b, f.pos)
	f.pos += int64(n)
	return n, err
}

// ReadAt reads len(b) bytes at off (io.ReaderAt): full reads except at
// EOF, where it returns the short count and io.EOF. Synthetic stored data
// (bulk payloads simulated by size alone) reads back as zeros.
func (f *File) ReadAt(b []byte, off int64) (int, error) {
	if f.closed {
		return 0, wrap("read", f.name, fs.ErrClosed)
	}
	pay, err := f.f.ReadAt(f.fsys.p, off, int64(len(b)))
	n := int(pay.Size)
	if pay.Data != nil {
		copy(b[:n], pay.Data)
	} else {
		clear(b[:n])
	}
	if err != nil {
		return n, wrap("read", f.name, err)
	}
	if n < len(b) {
		return n, io.EOF
	}
	return n, nil
}

// Write writes at the current position.
func (f *File) Write(b []byte) (int, error) {
	n, err := f.WriteAt(b, f.pos)
	f.pos += int64(n)
	return n, err
}

// WriteAt writes b at off (io.WriterAt), under the file's POSIX lock.
func (f *File) WriteAt(b []byte, off int64) (int, error) {
	if err := f.writeOK(); err != nil {
		return 0, err
	}
	n, err := f.f.WriteAt(f.fsys.p, off, netsim.BytesPayload(b))
	if err != nil {
		return int(n), wrap("write", f.name, err)
	}
	return int(n), nil
}

// WriteSynthetic writes length bytes of synthetic bulk data at off — the
// simulation moves (and accounts) the bytes without materializing them.
// Such ranges read back as zeros.
func (f *File) WriteSynthetic(off, length int64) (int64, error) {
	if err := f.writeOK(); err != nil {
		return 0, err
	}
	n, err := f.f.WriteAt(f.fsys.p, off, netsim.SyntheticPayload(length))
	if err != nil {
		return n, wrap("write", f.name, err)
	}
	return n, nil
}

// WriteSeeded writes length bytes generated from a trace content seed —
// the replayer's write path (trace.File). The bytes are generated once per
// (seed, length) on this FS: a later write of the same content, such as
// another replay clone's, gets the same buffer. It is handed down frozen:
// nothing modifies it, so every server holding a copy of the range, in
// every file written with it, keeps that one buffer rather than a copy.
func (f *File) WriteSeeded(off, length int64, seed uint64) (int64, error) {
	if seed == 0 {
		return f.WriteSynthetic(off, length)
	}
	if err := f.writeOK(); err != nil {
		return 0, err
	}
	data := f.fsys.seeded.data(seed, length)
	n, err := f.f.WriteAt(f.fsys.p, off, netsim.Payload{Size: length, Data: data, Frozen: true})
	if err != nil {
		return n, wrap("write", f.name, err)
	}
	return n, nil
}

// ReadDiscard reads [off, off+length) without handing the bytes back — the
// replayer's read path (trace.File). Returns the bytes actually read
// (truncated at EOF).
func (f *File) ReadDiscard(off, length int64) (int64, error) {
	if f.closed {
		return 0, wrap("read", f.name, fs.ErrClosed)
	}
	pay, err := f.f.ReadAt(f.fsys.p, off, length)
	if err != nil {
		return pay.Size, wrap("read", f.name, err)
	}
	return pay.Size, nil
}

// writeOK refuses a write through a closed or read-only handle. A byte
// range no file can have is lwfspfs's to refuse.
func (f *File) writeOK() error {
	if f.closed {
		return wrap("write", f.name, fs.ErrClosed)
	}
	if !f.writable {
		return wrap("write", f.name, errors.New("file opened read-only"))
	}
	return nil
}

// Seek sets the shared Read/Write position (io.Seeker).
func (f *File) Seek(offset int64, whence int) (int64, error) {
	if f.closed {
		return 0, wrap("seek", f.name, fs.ErrClosed)
	}
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.pos
	case io.SeekEnd:
		base = f.f.Size()
	default:
		return 0, wrap("seek", f.name, fs.ErrInvalid)
	}
	if base+offset < 0 {
		return 0, wrap("seek", f.name, fs.ErrInvalid)
	}
	f.pos = base + offset
	return f.pos, nil
}

// Sync flushes every storage server holding part of the file.
func (f *File) Sync() error {
	if f.closed {
		return wrap("sync", f.name, fs.ErrClosed)
	}
	if err := f.f.Sync(f.fsys.p); err != nil {
		return wrap("sync", f.name, err)
	}
	return nil
}

// Close persists metadata if needed and invalidates the handle.
func (f *File) Close() error {
	if f.closed {
		return wrap("close", f.name, fs.ErrClosed)
	}
	f.closed = true
	err := f.f.Close(f.fsys.p)
	return wrap("close", f.name, err)
}

// Dir is an open directory handle (fs.ReadDirFile). Entries load lazily on
// the first ReadDir and are served sorted.
type Dir struct {
	fsys *FS
	name string
	ents []fs.DirEntry
	off  int
}

// Stat describes the directory.
func (d *Dir) Stat() (fs.FileInfo, error) {
	return fileInfo{name: gopath.Base(d.name), dir: true}, nil
}

// Read fails: directories have no byte stream.
func (d *Dir) Read([]byte) (int, error) {
	return 0, &fs.PathError{Op: "read", Path: d.name, Err: errors.New("is a directory")}
}

// Close releases nothing — directory handles hold no server state.
func (d *Dir) Close() error { return nil }

// ReadDir returns the next n entries (all remaining if n <= 0), with the
// fs.ReadDirFile paging contract.
func (d *Dir) ReadDir(n int) ([]fs.DirEntry, error) {
	if d.ents == nil {
		ents, err := d.fsys.ReadDir(d.name)
		if err != nil {
			return nil, err
		}
		d.ents = ents
	}
	rest := d.ents[d.off:]
	if n <= 0 {
		d.off = len(d.ents)
		return rest, nil
	}
	if len(rest) == 0 {
		return nil, io.EOF
	}
	if n > len(rest) {
		n = len(rest)
	}
	d.off += n
	return rest[:n], nil
}

// dirEntry defers the per-child Stat until Info is asked for, so listing a
// big directory costs one RPC, not one per child.
type dirEntry struct {
	fsys *FS
	name string // full fs.FS-style name
	base string
	info fs.FileInfo
}

func (e *dirEntry) Name() string { return e.base }

func (e *dirEntry) IsDir() bool {
	info, err := e.Info()
	return err == nil && info.IsDir()
}

func (e *dirEntry) Type() fs.FileMode {
	info, err := e.Info()
	if err != nil {
		return 0
	}
	return info.Mode().Type()
}

func (e *dirEntry) Info() (fs.FileInfo, error) {
	if e.info == nil {
		info, err := e.fsys.Stat(e.name)
		if err != nil {
			return nil, err
		}
		e.info = info
	}
	return e.info, nil
}

func (e *dirEntry) String() string { return fs.FormatDirEntry(e) }

// fileInfo is the facade's fs.FileInfo: sizes come from the layout record,
// modes are fixed (0644 files, 0755 directories), and ModTime is zero —
// the naming service stores no times.
type fileInfo struct {
	name string
	size int64
	dir  bool
}

func (i fileInfo) Name() string { return i.name }
func (i fileInfo) Size() int64  { return i.size }
func (i fileInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
func (i fileInfo) ModTime() time.Time { return time.Time{} }
func (i fileInfo) IsDir() bool        { return i.dir }
func (i fileInfo) Sys() interface{}   { return nil }
func (i fileInfo) String() string     { return fs.FormatFileInfo(i) }

// ReplayMount adapts the facade to the replayer's trace.Mount interface.
func (x *FS) ReplayMount() trace.Mount { return replayMount{x} }

type replayMount struct{ x *FS }

func (m replayMount) Mkdir(name string) error  { return m.x.Mkdir(name) }
func (m replayMount) Remove(name string) error { return m.x.Remove(name) }
func (m replayMount) Create(name string) (trace.File, error) {
	f, err := m.x.Create(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}
func (m replayMount) OpenFile(name string) (trace.File, error) {
	f, err := m.x.OpenFile(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

var (
	_ fs.FS          = (*FS)(nil)
	_ fs.ReadDirFS   = (*FS)(nil)
	_ fs.StatFS      = (*FS)(nil)
	_ fs.File        = (*File)(nil)
	_ io.ReaderAt    = (*File)(nil)
	_ io.WriterAt    = (*File)(nil)
	_ io.Writer      = (*File)(nil)
	_ io.Seeker      = (*File)(nil)
	_ fs.ReadDirFile = (*Dir)(nil)
	_ trace.File     = (*File)(nil)
)
