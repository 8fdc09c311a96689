// Package lwfspfs is the paper's §6 short-term future work, built: a
// traditional parallel file system implemented *entirely as a client
// library* over the LWFS-core. Nothing here required changing a single
// core service — which is the point of the open-architecture argument
// (§3, guideline 4):
//
//   - The namespace is the LWFS naming service.
//   - A file is a metadata object (superblock-style layout record) plus
//     data objects striped over the storage servers — RAID-0 by default,
//     or a redundant scheme (N-way replicas, XOR parity) chosen at Format
//     time; placement and transfer planning live in internal/stripe, plain
//     library code any application could replace.
//   - POSIX write atomicity comes from the LWFS lock service: writers take
//     the file's exclusive lock, readers its shared lock. Applications
//     that don't want that pay nothing for it — the checkpoint library
//     never touches a lock.
//
// Data moves through the striped-layout engine: a WriteAt/ReadAt spanning M
// servers issues one coalesced request per object and runs them
// concurrently, so the transfer pays ~one round trip instead of M serial
// ones. That is the only transfer path; experiment E17 (figures.StripeSweep)
// issues its one-request-per-unit baseline itself.
//
// The companion example examples/posixfs runs it end to end.
package lwfspfs

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"

	"lwfs/internal/authz"
	"lwfs/internal/core"
	"lwfs/internal/metrics"
	"lwfs/internal/naming"
	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/stripe"
	"lwfs/internal/txn"
)

// ErrBadLayout reports corrupt file layout metadata (the stripe codec's
// error, re-exported for compatibility).
var ErrBadLayout = stripe.ErrBadLayout

// replicaCopies is the number of full mirrors a stripe.Replica file keeps
// of every data column.
const replicaCopies = 2

// Options tune a file system instance; all of them persist in the superblock.
type Options struct {
	StripeUnit int64 // bytes per stripe chunk (default 1 MiB)
	Stripes    int   // data columns per file (default: as many as servers allow)

	// Scheme selects the per-file redundancy layout: stripe.Raid0 (the
	// default, no redundancy), stripe.Replica (two full mirrors of every
	// column), or stripe.Parity (one XOR parity object per file). Files
	// under a redundant scheme survive a storage-server crash: reads
	// reconstruct transparently and FS.Rebuild re-homes the lost objects.
	Scheme stripe.Scheme

	// MetaCopies is the number of mirrors of the per-file metadata object
	// (the layout record). It defaults to 2 under a redundant scheme and
	// 1 under RAID-0 — mirroring the layout record of a file whose data
	// dies with the first crash buys nothing.
	MetaCopies int
}

func (o Options) withDefaults(servers int) Options {
	if o.StripeUnit == 0 {
		o.StripeUnit = 1 << 20
	}
	if o.MetaCopies == 0 {
		if o.Scheme == stripe.Raid0 {
			o.MetaCopies = 1
		} else {
			o.MetaCopies = 2
		}
	}
	if o.MetaCopies < 1 {
		o.MetaCopies = 1
	}
	// Default width leaves room for the redundancy so each object of a
	// file lands on its own server when the cluster is big enough.
	width := servers
	switch o.Scheme {
	case stripe.Replica:
		width = servers / replicaCopies
	case stripe.Parity:
		width = servers - 1
	}
	if width < 1 {
		width = 1
	}
	if o.Stripes == 0 || o.Stripes > width {
		o.Stripes = width
	}
	return o
}

// objectsPerFile is how many objects a file has once every column is
// allocated: the length of its layout's object list.
func (o Options) objectsPerFile() int {
	switch o.Scheme {
	case stripe.Replica:
		return o.Stripes * replicaCopies
	case stripe.Parity:
		return o.Stripes + 1
	}
	return o.Stripes
}

// FS is a mounted file system: a container, its capabilities, and a root
// directory in the naming service.
type FS struct {
	c    *core.Client
	root string
	cid  authz.ContainerID
	caps core.CapSet
	opts Options
	eng  *stripe.Engine

	degradedOpens *metrics.Counter // opens served by a non-primary metadata mirror
	mirrorsStale  *metrics.Counter // mirrors absorbed by a tolerant metadata flush
	metaRehomed   *metrics.Counter // metadata mirrors re-homed by Rebuild
	metaScope     metrics.Scope    // "pfs.meta", for the per-slot open counters
}

// initMetrics binds the metadata-redundancy instruments on the mounting
// client's registry.
func (fs *FS) initMetrics() {
	mm := fs.c.Endpoint().Metrics().Scope("pfs").Scope("meta")
	fs.metaScope = mm
	fs.degradedOpens = mm.Counter("degraded_opens")
	fs.mirrorsStale = mm.Counter("mirrors_stale")
	fs.metaRehomed = fs.c.Endpoint().Metrics().Scope("rebuild").Counter("meta_rehomed")
}

// countOpenSlot records which naming-entry slot served an open, under
// pfs.meta.open_slot.<slot> — the load-balance evidence that rotation
// spreads healthy opens across the mirror set. Single-mirror files are not
// counted; there is nothing to balance.
func (fs *FS) countOpenSlot(slot int) {
	fs.metaScope.Counter(fmt.Sprintf("open_slot.%d", slot)).Inc()
}

// mirrorStart picks where this client starts walking an n-mirror set: its
// node id modulo n. Different clients therefore favor different mirrors,
// spreading healthy open load, while one client is self-consistent — the
// mirror its Create handle calls primary is the one its Opens try first.
func (fs *FS) mirrorStart(n int) int {
	if n < 2 {
		return 0
	}
	return int(fs.c.Node()) % n
}

// Format creates a new file system rooted at rootDir: a fresh container, a
// naming directory, and a superblock object recording the layout defaults.
// The client must be logged in.
func Format(p *sim.Proc, c *core.Client, rootDir string, opts Options) (*FS, error) {
	opts = opts.withDefaults(len(c.Servers()))
	cid, err := c.CreateContainer(p)
	if err != nil {
		return nil, fmt.Errorf("lwfspfs: container: %w", err)
	}
	caps, err := c.GetCaps(p, cid, authz.AllOps...)
	if err != nil {
		return nil, fmt.Errorf("lwfspfs: caps: %w", err)
	}
	if err := c.Mkdir(p, rootDir); err != nil {
		return nil, fmt.Errorf("lwfspfs: root: %w", err)
	}
	fs := &FS{c: c, root: rootDir, cid: cid, caps: caps, opts: opts,
		eng: stripe.NewEngine(c, caps, 0)}
	fs.initMetrics()
	// Superblock: records container and layout so another process can
	// Mount by path alone.
	sb, err := c.CreateObject(p, c.Server(0), caps)
	if err != nil {
		return nil, fmt.Errorf("lwfspfs: superblock: %w", err)
	}
	if _, err := c.Write(p, sb, caps, 0, netsim.BytesPayload(encodeSuperblock(cid, opts))); err != nil {
		return nil, err
	}
	if err := c.CreateName(p, fs.sbPath(), sb, nil); err != nil {
		return nil, err
	}
	return fs, nil
}

// sbPath is the superblock's well-known name under the root.
func (fs *FS) sbPath() string { return fs.root + "/.lwfspfs" }

// Mount opens an existing file system given its root directory and
// container ID. The container ID travels out of band, exactly like a
// capability does (paper §3.1.2): whoever invites you to the file system
// hands you both. The caller's principal must be admitted by the
// container's policy (the owner grants with SetACL).
func Mount(p *sim.Proc, c *core.Client, rootDir string, cid authz.ContainerID) (*FS, error) {
	return mount(p, c, rootDir, cid, authz.AllOps)
}

// MountReadOnly is Mount for principals granted only read and list access:
// ReadAt, Open and List work; Create, WriteAt and Remove fail with the
// zero-capability errors of the storage service.
func MountReadOnly(p *sim.Proc, c *core.Client, rootDir string, cid authz.ContainerID) (*FS, error) {
	return mount(p, c, rootDir, cid, []authz.Op{authz.OpRead, authz.OpList})
}

func mount(p *sim.Proc, c *core.Client, rootDir string, cid authz.ContainerID, ops []authz.Op) (*FS, error) {
	fs := &FS{c: c, root: rootDir, cid: cid}
	caps, err := c.GetCaps(p, cid, ops...)
	if err != nil {
		return nil, fmt.Errorf("lwfspfs: caps: %w", err)
	}
	fs.caps = caps
	e, err := c.Lookup(p, fs.sbPath())
	if err != nil {
		return nil, fmt.Errorf("lwfspfs: superblock: %w", err)
	}
	if e.IsDir {
		return nil, fmt.Errorf("lwfspfs: superblock: %w", naming.ErrIsDir)
	}
	payload, err := c.Read(p, e.Refs[0], caps, 0, 256)
	if err != nil {
		return nil, err
	}
	sbCid, opts, ok := parseSuperblock(payload.Bytes())
	if !ok || sbCid != cid {
		return nil, ErrBadLayout
	}
	fs.opts = opts.withDefaults(len(c.Servers()))
	fs.eng = stripe.NewEngine(c, caps, 0)
	fs.initMetrics()
	return fs, nil
}

// encodeSuperblock is the superblock's one encoding. Redundant schemes
// append one line the legacy parser never wrote, so RAID-0 superblocks stay
// byte-identical to the v1 format.
func encodeSuperblock(cid authz.ContainerID, opts Options) []byte {
	content := fmt.Sprintf("lwfspfs v1\ncontainer %d\nstripeunit %d\nstripes %d\n",
		cid, opts.StripeUnit, opts.Stripes)
	switch opts.Scheme {
	case stripe.Replica:
		content += fmt.Sprintf("scheme replica %d\n", replicaCopies)
	case stripe.Parity:
		content += "scheme parity\n"
	}
	if opts.MetaCopies > 1 {
		content += fmt.Sprintf("meta %d\n", opts.MetaCopies)
	}
	return []byte(content)
}

// parseSuperblock decodes a superblock. It accepts only bytes
// encodeSuperblock writes back identically, for a layout Format could have
// written: a positive stripe unit, at least one stripe, and replicaCopies
// copies under Replica. (Meta copies below two have no line, so a canonical
// meta line holds at least two.)
func parseSuperblock(data []byte) (authz.ContainerID, Options, bool) {
	var opts Options
	var cid authz.ContainerID
	n, err := fmt.Sscanf(string(data), "lwfspfs v1\ncontainer %d\nstripeunit %d\nstripes %d\n",
		&cid, &opts.StripeUnit, &opts.Stripes)
	if err != nil || n != 3 {
		return 0, opts, false
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	for _, line := range lines[4:] {
		switch {
		case line == fmt.Sprintf("scheme replica %d", replicaCopies):
			opts.Scheme = stripe.Replica
		case line == "scheme parity":
			opts.Scheme = stripe.Parity
		case strings.HasPrefix(line, "meta "):
			if _, err := fmt.Sscanf(line, "meta %d", &opts.MetaCopies); err != nil {
				return 0, opts, false
			}
		default:
			return 0, opts, false
		}
	}
	ok := opts.StripeUnit > 0 && opts.Stripes >= 1 &&
		bytes.Equal(encodeSuperblock(cid, opts), data)
	return cid, opts, ok
}

// Container returns the file system's container ID (hand it to mounters).
func (fs *FS) Container() authz.ContainerID { return fs.cid }

// full converts an FS-relative path to a naming-service path.
func (fs *FS) full(path string) string {
	if !strings.HasPrefix(path, "/") {
		path = "/" + path
	}
	return fs.root + path
}

// lockName is the lock-service key protecting a file.
func (fs *FS) lockName(path string) string { return "lwfspfs:" + fs.full(path) }

// Mkdir creates a directory.
func (fs *FS) Mkdir(p *sim.Proc, path string) error {
	return fs.c.Mkdir(p, fs.full(path))
}

// List lists a directory, hiding the superblock.
func (fs *FS) List(p *sim.Proc, path string) ([]string, error) {
	names, err := fs.c.ListNames(p, fs.full(path))
	if err != nil {
		return nil, err
	}
	out := names[:0]
	for _, n := range names {
		if n != ".lwfspfs" {
			out = append(out, n)
		}
	}
	return out, nil
}

// Info describes one path: a directory, or a file and its logical size.
type Info struct {
	Path  string
	Size  int64
	IsDir bool
}

// Stat resolves a path to an Info. Files pay an Open (the size lives in
// the layout record, not the naming entry); directories only a Lookup.
func (fs *FS) Stat(p *sim.Proc, path string) (Info, error) {
	e, err := fs.c.Lookup(p, fs.full(path))
	if err != nil {
		return Info{}, err
	}
	if e.IsDir {
		return Info{Path: path, IsDir: true}, nil
	}
	f, err := fs.Open(p, path)
	if err != nil {
		return Info{}, err
	}
	return Info{Path: path, Size: f.Size()}, nil
}

// layoutWireMax bounds the metadata object read size.
const layoutWireMax = 64 << 10

// File is an open file. Its persistent metadata is a stripe.Layout (data
// objects, stripe unit, logical size) stored in the metadata object — or,
// under a redundant scheme, in MetaCopies mirrors of it, every one listed
// in the naming entry.
type File struct {
	fs       *FS
	path     string
	lock     string           // the file's lock-service key, fs.lockName(path)
	mdRefs   []storage.ObjRef // live metadata mirrors, in this client's walk order
	demote   bool             // the naming entry still lists a mirror dropped from mdRefs
	absorbed []storage.Target // servers this handle's writes absorbed: their copies may miss bytes
	l        stripe.Layout
	mdLen    int64  // metadata object length as of the last read or flush
	enc      []byte // the last flush's encoding buffer, kept once every mirror acknowledged it
	dirty    bool
	gen      uint64 // the file lock's generation l is known current at (genUnknown after Open)
}

// genUnknown is an opened handle's lock generation: Open reads the record
// without the lock, so its view is not known current at any generation.
// Every lock generation differs from it and from its successor.
const genUnknown = ^uint64(0)

// MetaRefs returns a copy of the handle's live metadata mirror refs in this
// client's walk order: [0] is the first live mirror — on a healthy handle
// the one the owning client tries first on open, its primary. (The naming
// entry stores placement order; each client rotates it by its own id, see
// mirrorStart.) A mirror the handle stopped trusting is not listed. Tests and
// experiments use it to aim faults at the server hosting a given mirror.
func (f *File) MetaRefs() []storage.ObjRef {
	return append([]storage.ObjRef(nil), f.mdRefs...)
}

// Create makes a new file inside one distributed transaction, so a crashed
// create leaves no debris: column 0's data objects — every replica copy,
// and the parity object under Parity — placed by placeHoles exactly as a
// write places a hole's, the metadata records placed by placeRecords, and
// the naming entry. Every other column starts as a hole and gets its
// objects when a write first lands in it (WriteAt).
//
// The records walk starts just past the rotation slots the data objects
// occupy, so they sit skewed from the data columns. While the cluster has a
// server per record, the records take distinct servers and column 0's
// server is tried last: a file's layout record and its first data column
// share no fate domain on clusters with room to spare. A smaller cluster
// doubles up. A single record (MetaCopies 1) sits on the server column 0
// landed on.
func (fs *FS) Create(p *sim.Proc, path string) (*File, error) {
	l := stripe.Layout{Unit: fs.opts.StripeUnit, Scheme: fs.opts.Scheme,
		Objs: make([]storage.ObjRef, fs.opts.objectsPerFile())}
	if fs.opts.Scheme == stripe.Replica {
		l.Copies = replicaCopies
	}
	var col0 []int // copy c of column 0 sits at c*Stripes, the parity object at Stripes
	for i := 0; i < len(l.Objs); i += fs.opts.Stripes {
		col0 = append(col0, i)
	}
	m, servers := fs.opts.MetaCopies, fs.c.Servers()
	pl := &core.Placement{Tx: fs.c.BeginTxn(), Kept: make([]storage.ObjRef, 0, len(col0)+m)}
	err := fs.placeHoles(p, pl, path, l, col0)
	var enc []byte
	if err == nil {
		enc = l.Encode()
		home, room := storage.TargetOf(l.Objs[0]), len(servers) >= m
		start := pathHash(path) + len(l.Objs)
		if m == 1 {
			start = slices.Index(servers, home)
		}
		taken := func(t storage.Target) bool { return storage.Holds(pl.Kept[len(col0):], t) }
		err = fs.placeRecords(p, pl, enc, servers, start, m,
			func(t storage.Target) bool { return room && taken(t) },
			func(t storage.Target) bool { return taken(t) || room && m > 1 && t == home })
	}
	if err == nil {
		err = fs.c.CreateNameRefs(p, fs.full(path), pl.Kept[len(col0):], pl.Tx)
	}
	if err != nil {
		pl.Abort(p) //nolint:errcheck
		return nil, err
	}
	if err := pl.Commit(p); err != nil {
		return nil, err
	}
	// The naming entry keeps placement order; the handle walks it rotated
	// by this client's id, matching what the client's own Open would do, so
	// MetaRefs()[0] is the same mirror either way a handle was obtained.
	mdRefs := pl.Kept[len(col0):]
	if s := fs.mirrorStart(m); s > 0 {
		mdRefs = slices.Concat(mdRefs[s:], mdRefs[:s])
	}
	return &File{fs: fs, path: path, lock: fs.lockName(path), mdRefs: mdRefs, l: l, mdLen: int64(len(enc))}, nil
}

// Open opens an existing file, reading its layout record from the first
// reachable metadata mirror (core.ReadMirror: only a fail-stop error falls
// through to the next one). The walk order is the naming entry's mirror
// list rotated by this client's id (mirrorStart), so healthy opens from a
// population of clients spread across the mirror set instead of all landing
// on entry slot 0; pfs.meta.open_slot.<n> counts which entry slot served
// each multi-mirror open. ErrNoObject means the record was fenced by a
// presumed-abort deletion on a live server, and a decode failure
// (ErrBadLayout) means corruption; neither may be masked as transience by
// reading another mirror (DESIGN.md §4.11). An open served by a mirror
// later in the client's walk than its first choice is recorded in
// pfs.meta.degraded_opens, and the mirrors it walked past leave the handle:
// it never reads or writes them again (once their server restarts they hold
// an old record), its next flush demotes them from the naming entry, and
// Rebuild tops the set back up.
func (fs *FS) Open(p *sim.Proc, path string) (*File, error) {
	e, err := fs.c.Lookup(p, fs.full(path))
	if err != nil {
		return nil, err
	}
	all := e.Refs
	start := fs.mirrorStart(len(all))
	refs := slices.Concat(all[start:], all[:start])
	l, n, skipped, err := fs.readRecord(p, path, refs)
	if err != nil {
		return nil, err
	}
	if len(all) > 1 {
		fs.countOpenSlot((start + skipped) % len(all))
	}
	if skipped > 0 {
		fs.degradedOpens.Inc()
	}
	return &File{fs: fs, path: path, lock: fs.lockName(path), mdRefs: refs[skipped:], demote: skipped > 0,
		l: l, mdLen: n, gen: genUnknown}, nil
}

// readRecord reads and decodes the layout record from the first reachable
// of refs, returning the record's length and how many unreachable mirrors
// preceded the one that answered.
func (fs *FS) readRecord(p *sim.Proc, path string, refs []storage.ObjRef) (stripe.Layout, int64, int, error) {
	payload, skipped, err := core.ReadMirror(refs, func(ref storage.ObjRef) (netsim.Payload, error) {
		return fs.c.Read(p, ref, fs.caps, 0, layoutWireMax)
	})
	switch {
	case errors.Is(err, core.ErrRanOut):
		return stripe.Layout{}, 0, 0, fmt.Errorf("lwfspfs: no metadata mirror of %s reachable: %w", path, err)
	case errors.Is(err, osd.ErrNoObject):
		return stripe.Layout{}, 0, 0, fmt.Errorf("lwfspfs: metadata object fenced: %w", err)
	case err != nil:
		return stripe.Layout{}, 0, 0, err
	}
	rec := payload.Bytes()
	l, err := stripe.Decode(rec)
	if err != nil {
		return stripe.Layout{}, 0, 0, err
	}
	return l, int64(len(rec)), skipped, nil
}

// refresh re-reads the layout record from the handle's live mirrors and
// adopts what other handles changed since this one read it: the record's
// objects for every column where they differ from the handle's view — a
// hole another client filled, or refs a Rebuild re-homed — and a larger
// size. The caller holds the file's lock, so what it reads is current. A
// handle opened before another client filled a hole thus reads that
// client's bytes rather than zeros, never allocates the column a second
// time, and never flushes a record that drops the other client's objects,
// shrinks its size or undoes a Rebuild. The handle's own fills, which the
// record may not name yet, stay.
//
// When another handle held the lock since this handle's own last access, the
// mirror set too comes from the naming entry, walked as Open walks it: a
// Rebuild may have re-homed a mirror whose old server has since restarted,
// and a flush to the handle's old set would leave the new mirror with the
// record of rebuild time. A handle Open just made read the entry already
// (genUnknown), so its first locked access costs no lookup.
func (f *File) refresh(p *sim.Proc) error {
	refs := f.mdRefs
	if f.gen != genUnknown {
		e, err := f.fs.c.Lookup(p, f.fs.full(f.path))
		if err != nil {
			return err
		}
		start := f.fs.mirrorStart(len(e.Refs))
		refs = slices.Concat(e.Refs[start:], e.Refs[:start])
	}
	l, n, skipped, err := f.fs.readRecord(p, f.path, refs)
	if err != nil {
		return err
	}
	// The mirrors the read walked past leave the handle, as in Open. A short
	// handle demotes again: another handle's Rebuild may have re-homed a
	// mirror that this handle's flushes would leave with an old record.
	f.mdRefs = refs[skipped:]
	f.demote = f.demote || len(f.mdRefs) < f.fs.opts.MetaCopies
	if len(l.Objs) != len(f.l.Objs) {
		return fmt.Errorf("lwfspfs: %s: layout record changed shape: %w", f.path, ErrBadLayout)
	}
	var objs []storage.ObjRef // a copy: Layout() may have handed f.l.Objs out
	for i, o := range l.Objs {
		if o != f.l.Objs[i] && !stripe.IsHole(o) {
			if objs == nil {
				objs = slices.Clone(f.l.Objs)
			}
			objs[i] = o
		}
	}
	if objs != nil {
		f.l.Objs = objs
	}
	f.l.Size, f.mdLen = max(f.l.Size, l.Size), n
	return nil
}

// Remove unlinks a file and frees its allocated objects.
func (fs *FS) Remove(p *sim.Proc, path string) error {
	f, err := fs.Open(p, path)
	if err != nil {
		return err
	}
	if _, err := fs.c.RemoveName(p, fs.full(path)); err != nil {
		return err
	}
	for _, o := range f.l.Objs {
		if stripe.IsHole(o) {
			continue
		}
		if err := fs.c.Remove(p, o, fs.caps); err != nil {
			return err
		}
	}
	for _, ref := range f.mdRefs {
		if err := fs.c.Remove(p, ref, fs.caps); err != nil {
			return err
		}
	}
	return nil
}

// Rebuild reconstructs path's objects hosted on the dead server onto the
// other servers, patching and persisting the file's layout. The whole
// repair runs under the file's exclusive lock — the rebuild fencing rule:
// no reader or writer ever observes a half-rebuilt layout, and by the time
// the lock drops the dead server's stale objects are unreferenced, so its
// eventual restart cannot resurrect old bytes.
// The caller's client should be armed with a retry policy (core.SetRetry)
// so the dead server's silence reads as a timeout, not a hang.
func (fs *FS) Rebuild(p *sim.Proc, path string, dead storage.Target) error {
	locks := fs.c.Locks()
	if _, err := locks.Lock(p, fs.lockName(path), txn.Exclusive); err != nil {
		return err
	}
	defer locks.Unlock(p, fs.lockName(path)) //nolint:errcheck
	f, err := fs.Open(p, path)
	if err != nil {
		return err
	}
	nl, err := stripe.NewRebuilder(fs.eng).Rebuild(p, f.l, dead, fs.c.Servers())
	if err != nil {
		return err
	}
	f.l = nl
	// Metadata mirrors hosted on the dead server (and any the handle already
	// dropped) are re-homed in their own transaction, still under the write
	// lock, before the repaired layout is flushed everywhere.
	if err := f.rehomeMeta(p, dead); err != nil {
		return err
	}
	return f.flushMeta(p)
}

// rehomeMeta replaces every live metadata mirror hosted on dead with a fresh
// object on a spare, topping the mirror set back up from the handle's live
// mirrors to the mount's MetaCopies (an Open, a refresh or a tolerant flush
// may have dropped a mirror earlier). The replacement objects, their contents,
// and the naming-entry swap commit in one transaction under the caller's
// exclusive file lock: the data rebuild's fencing rule applied to
// metadata. An aborted re-home leaves the old entry intact (SetRefs is
// deferred to commit) and the fresh objects die with the transaction, so
// no reader can ever resolve the path to a half-built mirror set.
func (f *File) rehomeMeta(p *sim.Proc, dead storage.Target) error {
	var keep []storage.ObjRef
	for _, ref := range f.mdRefs {
		if storage.TargetOf(ref) != dead {
			keep = append(keep, ref)
		}
	}
	need := f.fs.opts.MetaCopies - len(keep)
	if len(keep) == len(f.mdRefs) && need <= 0 {
		return nil
	}
	if len(keep) == 0 {
		return fmt.Errorf("lwfspfs: no live metadata mirror of %s to rebuild from: %w",
			f.path, stripe.ErrUnrecoverable)
	}
	// Prefer spares that host no surviving mirror; double up only when the
	// spares are too few for independence.
	pl := &core.Placement{Tx: f.fs.c.BeginTxn()}
	err := f.fs.placeRecords(p, pl, f.l.Encode(), f.fs.c.Servers(), 0, need,
		func(t storage.Target) bool { return t == dead },
		func(t storage.Target) bool { return storage.Holds(keep, t) || storage.Holds(pl.Kept, t) })
	f.fs.metaRehomed.Add(int64(len(pl.Kept)))
	// Running out of spares is not an error: the set is topped up as far
	// as the live spares allow and the next Rebuild tries again.
	if err != nil && !errors.Is(err, core.ErrRanOut) {
		pl.Abort(p) //nolint:errcheck
		return err
	}
	refs := append(keep, pl.Kept...)
	if err := f.fs.c.SetNameRefs(p, f.fs.full(f.path), refs, pl.Tx); err != nil {
		pl.Abort(p) //nolint:errcheck
		return err
	}
	if err := pl.Commit(p); err != nil {
		return err
	}
	f.mdRefs, f.demote = refs, false
	return nil
}

// Size returns the file's current size (as of open or last local write).
func (f *File) Size() int64 { return f.l.Size }

// Layout returns a copy of the file's striped layout (the object set is
// shared; treat it as read-only).
func (f *File) Layout() stripe.Layout { return f.l }

// WriteAt writes payload at off under POSIX semantics: the file's
// exclusive lock is held for the duration, so concurrent writers serialize
// and readers never observe torn writes. The transfer itself runs through
// the striped engine — one coalesced request per object, fanned out
// concurrently; a dead server the scheme covers is absorbed and remembered
// for Sync. A write that lands in a hole first allocates the hole's column
// (fill). A byte range no file can have (storage.CheckRange: a negative
// offset or size, or an end past math.MaxInt64) is refused with
// fs.ErrInvalid before anything moves.
func (f *File) WriteAt(p *sim.Proc, off int64, payload netsim.Payload) (int64, error) {
	if err := storage.CheckRange(off, payload.Size); err != nil {
		return 0, fmt.Errorf("lwfspfs: write %s: %w", f.path, err)
	}
	locks := f.fs.c.Locks()
	gen, err := locks.Lock(p, f.lock, txn.Exclusive)
	if err != nil {
		return 0, err
	}
	defer locks.Unlock(p, f.lock) //nolint:errcheck
	if gen != f.gen+1 {
		// Another handle held the lock since this one's view and may have
		// filled a hole, grown the size or rebuilt: the fill check and the
		// flush must see what it wrote.
		if err := f.refresh(p); err != nil {
			return 0, err
		}
	}
	f.gen = gen
	if f.l.Missing(off, payload.Size) != nil {
		if err := f.fill(p, off, payload.Size); err != nil {
			return 0, err
		}
	}
	n, absorbed, err := f.fs.eng.WriteAtTolerant(p, f.l, off, payload)
	for _, t := range absorbed {
		if !slices.Contains(f.absorbed, t) {
			f.absorbed = append(f.absorbed, t)
		}
	}
	if err != nil {
		return n, err
	}
	if end := off + payload.Size; end > f.l.Size {
		f.l.Size = end
		f.dirty = true
	}
	if !f.dirty {
		// Steady-state overwrite: the layout record is unchanged, so the
		// metadata RPC would be a no-op — skip it.
		return n, nil
	}
	// Persist the new size (and any column fill allocated) immediately:
	// POSIX readers opening after this write returns must see it.
	return n, f.flushMeta(p)
}

// allocTries bounds the allocation transactions one fill runs. A target that
// dies after its object was created but before the commit aborts the
// transaction; the next try's create finds it dead and walks past it. One
// crash needs one retry: with a single try,
// checkpoint.TestRedundantCheckpointRidesThroughCrash (a server crashing
// for good mid-dump) fails at LWFS_CHAOS_SEED 1, 2, 5 and 6; with two it
// passes at seeds 1 to 12.
const allocTries = 2

// fill allocates every hole column the range [off, off+n) touches, under
// the caller's exclusive lock, with a layout WriteAt made current: one
// transaction creates every missing object of those columns — all copies —
// through placeHoles. A commit that fails (a target that died after its
// create) aborts the transaction, or leaves it in doubt when the target was
// its decision site, and the allocation runs again without the targets
// found dead so far.
//
// The committed objects enter f.l and mark it dirty; WriteAt's flush names
// them in the layout record only after the data write. A record therefore
// never names an object an abort could remove. A client that crashes between
// the commit and the flush, or a try in doubt that the site had committed,
// leaves committed objects no record names: leaked space, never a dangling
// ref.
func (f *File) fill(p *sim.Proc, off, n int64) error {
	idxs := f.l.Missing(off, n)
	pl := &core.Placement{}
	for try := 1; ; try++ {
		l := f.l
		l.Objs = slices.Clone(f.l.Objs)
		pl.Tx, pl.Kept = f.fs.c.BeginTxn(), pl.Kept[:0]
		if err := f.fs.placeHoles(p, pl, f.path, l, idxs); err != nil {
			pl.Abort(p) //nolint:errcheck
			return err
		}
		err := pl.Commit(p)
		if err == nil {
			f.l, f.dirty = l, true
			return nil
		}
		if try == allocTries {
			return fmt.Errorf("lwfspfs: allocate %s: %w", f.path, err)
		}
	}
}

// placeHoles is the one walk that creates data objects: it creates the
// objects at idxs in the placement's transaction — the creates fan out
// concurrently — and patches them into l.Objs. Object idx goes to
// Server(pathHash+idx), so copy c of column i and the parity object each
// get their own server when the cluster is big enough. When that target
// fails fail-stop at the create, the object goes to the next live server in
// the rotation, preferring one that holds no other member of its redundancy
// group.
func (fs *FS) placeHoles(p *sim.Proc, pl *core.Placement, path string, l stripe.Layout, idxs []int) error {
	base := pathHash(path)
	var err error
	if len(idxs) == 1 {
		// One object (every RAID-0 create): nothing to fan out, and no
		// worker closure to allocate.
		err = fs.placeHole(p, pl, l, idxs[0], base)
	} else {
		err = stripe.FanOut(p, "lwfspfs/alloc", len(idxs), stripe.DefaultWindow, func(wp *sim.Proc, k int) error {
			return fs.placeHole(wp, pl, l, idxs[k], base)
		})
	}
	if err != nil {
		return fmt.Errorf("lwfspfs: allocate %s: %w", path, err)
	}
	return nil
}

// placeHole creates object idx of l, walking the rotation from
// Server(base+idx).
func (fs *FS) placeHole(p *sim.Proc, pl *core.Placement, l stripe.Layout, idx, base int) error {
	return pl.Walk(fs.c.Servers(), base+idx, 1, nil,
		func(t storage.Target) bool { return l.Related(idx, t) },
		func(t storage.Target) error {
			ref, err := fs.c.CreateObjectTxn(p, t, fs.caps, pl.Tx)
			if err == nil {
				l.Objs[idx] = ref
				pl.Kept = append(pl.Kept, ref)
			}
			return err
		})
}

// placeRecords is the one walk that creates metadata records: need objects
// created in the placement's transaction, each on the next candidate
// pl.Walk offers from cands[start] and written with enc before the walk
// moves on. A candidate that fails fail-stop, at the create or at
// the write, is given up on (core.Placement). The records join pl.Kept in
// placement order.
func (fs *FS) placeRecords(p *sim.Proc, pl *core.Placement, enc []byte, cands []storage.Target, start, need int, excluded, avoided func(storage.Target) bool) error {
	return pl.Walk(cands, start, need, excluded, avoided,
		func(t storage.Target) error {
			ref, err := fs.c.CreateObjectTxn(p, t, fs.caps, pl.Tx)
			if err == nil {
				_, err = fs.c.Write(p, ref, fs.caps, 0, netsim.BytesPayload(enc))
			}
			if err == nil {
				pl.Kept = append(pl.Kept, ref)
			}
			return err
		})
}

// ReadAt reads [off, off+length) under the file's shared lock, truncated at
// the file's logical size. Holes read as zeros, but when another handle held
// the lock exclusively since this one's view (the lock generation says so),
// the handle first re-reads the layout record under the lock (refresh), so a
// handle opened before another client filled a hole returns that client's
// bytes. A byte range storage.CheckRange refuses is refused with
// fs.ErrInvalid. The payload may be a seeded run (stripe.Engine.ReadAt).
func (f *File) ReadAt(p *sim.Proc, off, length int64) (netsim.Payload, error) {
	if err := storage.CheckRange(off, length); err != nil {
		return netsim.Payload{}, fmt.Errorf("lwfspfs: read %s: %w", f.path, err)
	}
	locks := f.fs.c.Locks()
	gen, err := locks.Lock(p, f.lock, txn.Shared)
	if err != nil {
		return netsim.Payload{}, err
	}
	defer locks.Unlock(p, f.lock) //nolint:errcheck
	if n := min(length, f.l.Size-off); gen != f.gen && n > 0 && f.l.Missing(off, n) != nil {
		// A hole inside the size, and another handle held the lock
		// exclusively since this one's view: it may have written there.
		if err := f.refresh(p); err != nil {
			return netsim.Payload{}, err
		}
		f.gen = gen
	}
	length = min(length, f.l.Size-off) // the refresh may have grown the size
	if length <= 0 {
		return netsim.Payload{}, nil
	}
	return f.fs.eng.ReadAt(p, f.l, off, length)
}

// Sync flushes every storage server holding part of the file, concurrently.
// Dead servers, and those this handle's writes absorbed, are tolerated while
// the file's redundancy covers every byte without them (stripe.Engine.Sync);
// copies another handle's writes absorbed are not known here.
func (f *File) Sync(p *sim.Proc) error {
	return f.fs.eng.Sync(p, f.l, f.absorbed)
}

// Close persists metadata if needed.
func (f *File) Close(p *sim.Proc) error {
	if !f.dirty {
		return nil
	}
	return f.flushMeta(p)
}

// flushMeta rewrites the layout record at offset 0 on every live metadata
// mirror. Size-only updates are length-monotonic, but Rebuild swaps object
// refs, so the new encoding can be shorter than what's on disk — the
// metadata object is truncated in that case, or the stale tail of the old
// encoding would make the next Open's Decode fail with ErrBadLayout.
//
// The flush has WriteAtTolerant semantics: while more than one live mirror
// remains, a mirror that times out is absorbed — dropped from the handle and
// counted in pfs.meta.mirrors_stale. A dropped mirror is never re-read or
// re-written; Rebuild re-homes it. While the naming entry still lists a
// dropped mirror (absorbed now, or skipped by an Open or a refresh), the
// flush rewrites the entry to the live mirrors before it succeeds, once per
// loss: no later Open can be served an old record, even after a crash. A
// non-timeout error, or the last live mirror failing, stays hard.
func (f *File) flushMeta(p *sim.Proc) error {
	// The buffer comes back to the handle only after every mirror
	// acknowledged it: a server may still store the bytes it pulled for a
	// write that timed out, so a flush that saw an error drops it.
	enc := f.l.AppendEncode(f.enc[:0])
	f.enc = nil
	acked := true
	for i := 0; i < len(f.mdRefs); {
		err := f.writeMirror(p, f.mdRefs[i], enc)
		if err == nil {
			i++
			continue
		}
		acked = false
		if !portals.FailStop(err) || len(f.mdRefs) == 1 {
			return err
		}
		// A fresh slice: the naming entry may hold the old one.
		f.mdRefs, f.demote = slices.Concat(f.mdRefs[:i], f.mdRefs[i+1:]), true
		f.fs.mirrorsStale.Inc()
	}
	if f.demote {
		if err := f.fs.c.SetNameRefs(p, f.fs.full(f.path), f.mdRefs, nil); err != nil {
			return err
		}
		f.demote = false
	}
	f.mdLen = int64(len(enc))
	f.dirty = false
	if acked {
		f.enc = enc
	}
	return nil
}

// writeMirror writes one mirror's record, truncating the shrink case.
func (f *File) writeMirror(p *sim.Proc, ref storage.ObjRef, enc []byte) error {
	if _, err := f.fs.c.Write(p, ref, f.fs.caps, 0, netsim.BytesPayload(enc)); err != nil {
		return err
	}
	if int64(len(enc)) < f.mdLen {
		return f.fs.c.Truncate(p, ref, f.fs.caps, int64(len(enc)))
	}
	return nil
}

// pathHash spreads files' starting servers.
func pathHash(path string) int {
	h := 2166136261
	for i := 0; i < len(path); i++ {
		h = (h ^ int(path[i])) * 16777619
	}
	if h < 0 {
		h = -h
	}
	return h
}
