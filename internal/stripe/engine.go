package stripe

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"slices"

	"lwfs/internal/core"
	"lwfs/internal/metrics"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/qos"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
)

// ErrUnrecoverable reports a degraded operation the layout's redundancy
// could not absorb: more objects unreachable than the scheme tolerates.
var ErrUnrecoverable = errors.New("stripe: too many objects unreachable to reconstruct")

// DefaultWindow bounds how many per-object requests an engine keeps in
// flight at once. Eight covers the dev cluster's 16 servers in two waves
// while keeping a single client from monopolizing the fabric.
const DefaultWindow = 8

// Engine executes planned transfers: one coalesced request per object,
// fanned out concurrently under the server-directed pull protocol. It is a
// thin, reusable wrapper over a core client — any library distributing data
// over the storage servers (lwfspfs, checkpoint N-to-M, application-private
// layouts) can drive it with its own Layout.
type Engine struct {
	c      *core.Client
	caps   core.CapSet
	window int

	// Registered under `stripe.<node>.*`: per-object requests issued and
	// bytes moved. Engines on one node share the instruments.
	reqs       *metrics.Counter
	bytesOut   *metrics.Counter
	bytesIn    *metrics.Counter
	syncRounds *metrics.Counter

	// Degraded-path instruments: requests served via redundancy after the
	// primary object timed out, and the bytes so reconstructed.
	degradedReads *metrics.Counter
	reconBytes    *metrics.Counter

	free []*transfer // idle transfer records (take, put)
}

// A transfer is the working state of one engine call: its plan, its
// per-object requests with their payloads, byte counts and errors, and the
// fan-out that runs them. An engine keeps its idle transfers on a free list
// — one kernel runs an engine, so the list needs no lock — and a call takes
// one on entry and puts it back on exit, so a warm transfer allocates only
// its RPCs. Calls that interleave (one parks in its fan-out while another
// runs, or a degraded read reconstructs inside its own) each hold their own.
// An idle record pins no payload bytes and no error, and no error slice a
// caller gets aliases one.
type transfer struct {
	fan
	e    *Engine
	reqs []Request        // the plan
	pls  []netsim.Payload // per request: its gathered payload
	ios  []objIO          // the per-object requests one fan-out runs

	// The fan-out's operations on ios[i], bound once by newTransfer: a
	// write, a read (a hole reads as nothing) and a sync of its server.
	write, read, sync func(wp *sim.Proc, i int) error
}

// A fan is one fan-out's state: op(i) for each i in [0, n), the cursor the
// workers share, the per-index errors (made at the first failure: empty
// means none), the wait group the caller parks on and the one worker body,
// bound once by bind. FanOut allocates a bare one; a transfer embeds it.
type fan struct {
	op     func(wp *sim.Proc, i int) error
	errs   []error
	n      int
	next   int
	wg     sim.WaitGroup
	worker func(*sim.Proc)
}

// objIO is one per-object request of a transfer and what came of it.
type objIO struct {
	ref   storage.ObjRef // a sync names only the server
	off   int64
	n     int64          // a read's length; a write's is its payload's
	pl    netsim.Payload // what a write sends, or what a read returned
	moved int64          // bytes a write moved
	obj   int            // the data column, or Width() for the parity object
}

// newTransfer makes a record for e, binding its worker and operations:
// closures, not method values, so no wrapper frame sits under every worker
// parked in its call.
func newTransfer(e *Engine) *transfer {
	t := &transfer{e: e}
	t.bind()
	t.write = func(wp *sim.Proc, i int) error {
		io := &t.ios[i]
		m, err := e.c.Write(wp, io.ref, e.caps, io.off, io.pl)
		io.moved = m
		return err
	}
	t.read = func(wp *sim.Proc, i int) error {
		io := &t.ios[i]
		if IsHole(io.ref) {
			return nil
		}
		pl, err := e.c.Read(wp, io.ref, e.caps, io.off, io.n)
		io.pl = pl
		return err
	}
	t.sync = func(wp *sim.Proc, i int) error {
		return e.c.Sync(wp, storage.TargetOf(t.ios[i].ref), e.caps)
	}
	return t
}

// take hands out an idle transfer record, making one when none is idle.
func (e *Engine) take() *transfer {
	n := len(e.free)
	if n == 0 {
		return newTransfer(e)
	}
	t := e.free[n-1]
	e.free = e.free[:n-1]
	return t
}

// put returns t to the free list, dropping every payload and error it
// references, spare capacity included.
func (e *Engine) put(t *transfer) {
	clear(t.pls[:cap(t.pls)])
	clear(t.ios[:cap(t.ios)])
	clear(t.errs[:cap(t.errs)])
	t.reqs, t.pls, t.ios, t.errs, t.op = t.reqs[:0], t.pls[:0], t.ios[:0], t.errs[:0], nil
	e.free = append(e.free, t)
}

// NewEngine wraps a logged-in core client and the capability set its
// transfers present. window bounds in-flight requests per call (<= 0 picks
// DefaultWindow).
func NewEngine(c *core.Client, caps core.CapSet, window int) *Engine {
	if window <= 0 {
		window = DefaultWindow
	}
	sc := c.Endpoint().Metrics().Scope("stripe").Scope(c.Endpoint().NodeName())
	return &Engine{
		c: c, caps: caps, window: window,
		reqs:          sc.Counter("requests"),
		bytesOut:      sc.Counter("bytes_written"),
		bytesIn:       sc.Counter("bytes_read"),
		syncRounds:    sc.Counter("sync_rounds"),
		degradedReads: sc.Counter("degraded_reads"),
		reconBytes:    sc.Counter("reconstructed_bytes"),
	}
}

// WriteAt writes payload at file offset off under the layout: the range is
// planned into one request per data column, expanded per the redundancy
// scheme (replica copies, parity update), and the per-server writes proceed
// concurrently. It returns the data bytes written; on failure the error
// carries every failed request, and the count covers only acknowledged
// writes (partially-landed parallel writes are the caller's layout/locking
// concern, exactly as with serial per-unit writes).
func (e *Engine) WriteAt(p *sim.Proc, l Layout, off int64, payload netsim.Payload) (int64, error) {
	n, _, err := e.WriteAtTolerant(p, l, off, payload)
	return n, err
}

// WriteAtTolerant writes like WriteAt but exploits the layout's redundancy:
// writes (and parity read-modify-write reads) that time out against a dead
// server are absorbed as long as the layout stays recoverable, and the
// distinct targets so absorbed come back for the caller to fence — count
// lost in Sync, delist from transactions, schedule for rebuild. An absorbed
// object is STALE: it must be rebuilt before it is trusted again. RAID-0 is
// the one-copy case of the replica rule: a column whose only object timed out
// is lost, so the write fails with ErrUnrecoverable.
//
// Every column the range touches must be allocated (Layout.Missing): the
// engine has nowhere to put bytes aimed at a hole.
func (e *Engine) WriteAtTolerant(p *sim.Proc, l Layout, off int64, payload netsim.Payload) (int64, []storage.Target, error) {
	if l.Missing(off, payload.Size) != nil {
		return 0, nil, fmt.Errorf("%w: write into an unallocated column", ErrBadLayout)
	}
	if l.Scheme == Parity {
		return e.writeParity(p, l, off, payload)
	}
	return e.writeCopies(p, l, off, payload)
}

// writeCopies fans each column request out to every copy of its column: one
// under RAID-0, Copies under Replica. A column extent counts as written once
// at least one copy acknowledged it; copies that timed out are tolerated and
// reported, any other failure is hard, and a column whose every copy failed
// fail-stop is lost: ErrUnrecoverable joined with its copies' errors.
func (e *Engine) writeCopies(p *sim.Proc, l Layout, off int64, payload netsim.Payload) (int64, []storage.Target, error) {
	t := e.take()
	defer e.put(t)
	t.reqs = l.appendPlan(t.reqs, off, payload.Size)
	w, r := l.Width(), l.copies()
	e.reqs.Add(int64(len(t.reqs) * r))
	for _, rq := range t.reqs {
		pl := rq.Gather(off, payload) // a column's copies share one gathered payload
		for c := 0; c < r; c++ {
			t.ios = append(t.ios, objIO{ref: l.Objs[c*w+rq.Obj], off: rq.Off, pl: pl})
		}
	}
	t.fanOut(p, "stripe/write", len(t.ios), e.window, t.write)
	e.bytesOut.Add(t.moved())
	var failed targetSet
	var hard []error
	var total int64
	for i, rq := range t.reqs {
		if len(t.errs) == 0 { // every copy landed
			total += rq.Len
			continue
		}
		col, stopped := t.errs[i*r:i*r+r], 0
		for c, err := range col {
			switch {
			case err == nil:
			case portals.FailStop(err):
				stopped++
				failed.add(storage.TargetOf(l.ReplicaObj(c, rq.Obj)))
			default:
				hard = append(hard, fmt.Errorf("stripe/write[col %d copy %d]: %w", rq.Obj, c, err))
			}
		}
		switch {
		case slices.Contains(col, nil):
			total += rq.Len
		case stopped == r:
			hard = append(hard, fmt.Errorf("stripe/write[col %d]: %w: %w", rq.Obj, ErrUnrecoverable, errors.Join(col...)))
		}
	}
	return total, failed, errors.Join(hard...)
}

// writeParity writes the column extents plus an updated parity extent. A
// write covering every column over the same extent (a full-stripe write)
// computes parity from the new data alone; anything narrower pays the
// read-modify-write: read the old parity window and each written column's
// old extent, then parity' = parity ^ old ^ new. Single-object loss at any
// point — a dead column (its old extent reconstructs from the survivors and
// its new content lives on implicitly in the parity delta) or a dead parity
// server (data lands plain, parity goes stale) — degrades the layout but
// completes; a second loss is unrecoverable.
func (e *Engine) writeParity(p *sim.Proc, l Layout, off int64, payload netsim.Payload) (int64, []storage.Target, error) {
	t := e.take()
	defer e.put(t)
	t.reqs = l.appendPlan(t.reqs, off, payload.Size)
	reqs := t.reqs
	if len(reqs) == 0 {
		return 0, nil, nil
	}
	w := l.Width()
	// The parity window is the union of the column extents: for a
	// contiguous file range every column extent falls inside it.
	pOff, pEnd := reqs[0].Off, reqs[0].Off+reqs[0].Len
	for _, rq := range reqs[1:] {
		if rq.Off < pOff {
			pOff = rq.Off
		}
		if end := rq.Off + rq.Len; end > pEnd {
			pEnd = end
		}
	}
	pLen := pEnd - pOff
	full := len(reqs) == w
	for _, rq := range reqs {
		if rq.Off != pOff || rq.Len != pLen {
			full = false
		}
	}

	for _, rq := range reqs {
		t.pls = append(t.pls, rq.Gather(off, payload))
	}
	news := t.pls
	var parity []byte
	if !payload.Synthetic() {
		parity = make([]byte, pLen)
	}
	var failed targetSet
	lost := map[int]bool{} // object index (w = parity) confirmed unreachable

	if full {
		if parity != nil {
			for i := range reqs {
				xorInto(parity, news[i].Bytes())
			}
		}
	} else {
		for _, rq := range reqs {
			t.ios = append(t.ios, objIO{ref: l.Objs[rq.Obj], off: rq.Off, n: rq.Len})
		}
		t.ios = append(t.ios, objIO{ref: l.ParityObj(), off: pOff, n: pLen})
		t.fanOut(p, "stripe/rmw-read", len(t.ios), e.window, t.read)
		e.reqs.Add(int64(len(t.ios)))
		olds := t.ios // olds[i].pl: the old bytes of request i, or of the parity window
		for i, rerr := range t.errs {
			if rerr == nil {
				continue
			}
			if !portals.FailStop(rerr) {
				return 0, failed, fmt.Errorf("stripe/rmw-read: %w", rerr)
			}
			if i == len(reqs) {
				lost[w] = true
				failed.add(storage.TargetOf(l.ParityObj()))
				continue
			}
			col := reqs[i].Obj
			lost[col] = true
			failed.add(storage.TargetOf(l.Objs[col]))
			if len(lost) == 1 && parity != nil {
				old, derr := e.reconstructExtent(p, l, col, reqs[i].Off, reqs[i].Len, lost)
				if derr != nil {
					return 0, failed, derr
				}
				olds[i].pl = old
			}
		}
		if len(lost) > 1 {
			return 0, failed, fmt.Errorf("stripe/write: %w", ErrUnrecoverable)
		}
		if parity != nil && !lost[w] {
			xorInto(parity, olds[len(reqs)].pl.Bytes())
			for i, rq := range reqs {
				xorInto(parity[rq.Off-pOff:], olds[i].pl.Bytes())
				xorInto(parity[rq.Off-pOff:], news[i].Bytes())
			}
		}
	}

	t.ios = t.ios[:0]
	for i, rq := range reqs {
		if lost[rq.Obj] {
			continue
		}
		t.ios = append(t.ios, objIO{ref: l.Objs[rq.Obj], off: rq.Off, pl: news[i], obj: rq.Obj})
	}
	if !lost[w] {
		ppl := netsim.SyntheticPayload(pLen)
		if parity != nil {
			ppl = netsim.BytesPayload(parity)
		}
		t.ios = append(t.ios, objIO{ref: l.ParityObj(), off: pOff, pl: ppl, obj: w})
	}
	e.reqs.Add(int64(len(t.ios)))
	t.fanOut(p, "stripe/write", len(t.ios), e.window, t.write)
	e.bytesOut.Add(t.moved())
	for i, werr := range t.errs {
		if werr == nil {
			continue
		}
		if !portals.FailStop(werr) {
			return 0, failed, fmt.Errorf("stripe/write[obj %d]: %w", t.ios[i].obj, werr)
		}
		lost[t.ios[i].obj] = true
		failed.add(storage.TargetOf(t.ios[i].ref))
	}
	if len(lost) > 1 {
		return 0, failed, fmt.Errorf("stripe/write: %w", ErrUnrecoverable)
	}
	return payload.Size, failed, nil
}

// reconstructExtent rebuilds object idx's extent [objOff, objOff+n) of a
// Parity layout by XOR-ing the same extent of every other group member
// (idx == Width() reconstructs the parity object itself from the data
// columns). Short reads zero-fill — bytes beyond a source's end contribute
// nothing, and a hole contributes nothing at all. Every survivor must
// answer; a second unreachable object makes the extent unrecoverable.
func (e *Engine) reconstructExtent(p *sim.Proc, l Layout, idx int, objOff, n int64, skip map[int]bool) (netsim.Payload, error) {
	t := e.take()
	defer e.put(t)
	w := l.Width()
	members := 0
	for j := 0; j <= w; j++ {
		if j == idx || skip[j] {
			continue
		}
		members++
		if !IsHole(l.Objs[j]) {
			t.ios = append(t.ios, objIO{ref: l.Objs[j], off: objOff, n: n})
		}
	}
	if members < w {
		return netsim.Payload{}, fmt.Errorf("stripe/reconstruct[%d]: %w", idx, ErrUnrecoverable)
	}
	t.fanOut(p, "stripe/reconstruct", len(t.ios), e.window, t.read)
	e.reqs.Add(int64(len(t.ios)))
	if err := joinIndexed("stripe/reconstruct", t.errs); err != nil {
		return netsim.Payload{}, fmt.Errorf("stripe/reconstruct[%d]: %w: %v", idx, ErrUnrecoverable, err)
	}
	var xor []byte
	for _, g := range t.ios {
		if g.pl.Synthetic() {
			continue
		}
		if xor == nil {
			xor = make([]byte, n)
		}
		xorInto(xor, g.pl.Bytes())
	}
	return netsim.Payload{Size: n, Data: xor}, nil
}

// xorInto XORs src into dst over their common prefix, a word at a time.
func xorInto(dst, src []byte) {
	n := min(len(dst), len(src))
	subtle.XORBytes(dst[:n], dst[:n], src[:n])
}

// targetSet collects distinct targets in first-seen order; the zero value is
// an empty set. Sets stay a few targets long, so a scan beats a map.
type targetSet []storage.Target

func (s *targetSet) add(t storage.Target) {
	if !slices.Contains(*s, t) {
		*s = append(*s, t)
	}
}

// ReadAt reads [off, off+length) under the layout with the same plan/fan-out
// as WriteAt, joining each object's extent back in file order. Callers
// clamp length to the logical size first (the layout does not know EOF);
// reads past the end of short objects return the bytes present.
//
// Under a redundant scheme the read is degraded-tolerant: a column whose
// primary object times out is served from a surviving replica copy, or
// XOR-reconstructed from the other columns and parity, transparently to the
// caller (counted by the degraded_reads / reconstructed_bytes instruments).
// RAID-0 reads fail exactly as before. A hole column issues no request and
// reads as an empty object. The pieces join as netsim.Joiner joins them: a
// read whose pieces bring back consecutive parts of one seeded run returns
// that run.
func (e *Engine) ReadAt(p *sim.Proc, l Layout, off, length int64) (netsim.Payload, error) {
	t := e.take()
	defer e.put(t)
	t.reqs = l.appendPlan(t.reqs, off, length)
	e.bytesIn.Add(length)
	out := netsim.Payload{Size: length}
	for _, rq := range t.reqs {
		ref := l.Objs[rq.Obj]
		if !IsHole(ref) {
			e.reqs.Inc()
		}
		t.ios = append(t.ios, objIO{ref: ref, off: rq.Off, n: rq.Len})
	}
	t.fanOut(p, "stripe/read", len(t.ios), e.window, t.read)
	if err := joinIndexed("stripe/read", t.errs); err != nil {
		if l.Scheme == Raid0 {
			return out, err
		}
		var down []int
		for i, rerr := range t.errs {
			if rerr == nil {
				continue
			}
			if !portals.FailStop(rerr) {
				return out, err
			}
			down = append(down, i)
		}
		derr := FanOut(p, "stripe/degraded", len(down), e.window, func(wp *sim.Proc, k int) error {
			i := down[k]
			pl, rerr := e.readDegraded(wp, l, t.reqs[i])
			t.ios[i].pl = pl
			return rerr
		})
		if derr != nil {
			return out, derr
		}
	}
	j := netsim.Joiner{Size: length}
	for i, rq := range t.reqs {
		rq.Scatter(&j, off, t.ios[i].pl)
	}
	return j.Payload(), nil
}

// readDegraded serves one planned request after its primary object timed
// out: replica layouts fall back through the surviving copies in order,
// parity layouts XOR-reconstruct the extent from the other columns and the
// parity object.
func (e *Engine) readDegraded(p *sim.Proc, l Layout, r Request) (netsim.Payload, error) {
	e.degradedReads.Inc()
	if l.Scheme == Replica {
		// Try surviving copies in copy order, except that copies on
		// servers the client's circuit breaker holds Down go last: when a
		// breaker is armed (core.Client.SetBreaker) a flapping server
		// costs a fast-fail here instead of a full timeout per extent.
		copies := make([]storage.ObjRef, 0, l.Copies-1)
		for c := 1; c < l.Copies; c++ {
			copies = append(copies, l.ReplicaObj(c, r.Obj))
		}
		var pl netsim.Payload
		err := core.Walk(copies, 0, 1, nil,
			func(ref storage.ObjRef) bool { return e.c.HealthOf(storage.TargetOf(ref)) == qos.Down },
			func(ref storage.ObjRef) (rerr error) {
				pl, rerr = e.c.Read(p, ref, e.caps, r.Off, r.Len)
				e.reqs.Inc()
				return rerr
			}, nil)
		if errors.Is(err, core.ErrRanOut) {
			return netsim.Payload{}, fmt.Errorf("stripe/degraded[col %d]: %w", r.Obj, ErrUnrecoverable)
		}
		if err != nil {
			return netsim.Payload{}, err
		}
		e.reconBytes.Add(r.Len)
		return pl, nil
	}
	pl, rerr := e.reconstructExtent(p, l, r.Obj, r.Off, r.Len, nil)
	if rerr != nil {
		return netsim.Payload{}, rerr
	}
	e.reconBytes.Add(r.Len)
	return pl, nil
}

// Targets returns the distinct storage servers holding the layout's
// allocated objects, in first-appearance order.
func (l Layout) Targets() []storage.Target {
	var ts targetSet
	for _, o := range l.Objs {
		if !IsHole(o) {
			ts.add(storage.TargetOf(o))
		}
	}
	return ts
}

// Sync flushes every server holding an allocated object of l, concurrently.
// It succeeds while l survives (Layout.survives, a write's rule) the servers
// whose sync fails fail-stop plus absorbed, the targets the caller's tolerant
// writes absorbed, whose copies may miss bytes; otherwise it fails with
// ErrUnrecoverable joined with the sync errors. Other errors stay as they are.
func (e *Engine) Sync(p *sim.Proc, l Layout, absorbed []storage.Target) error {
	ts := l.Targets()
	errs := e.syncTargets(p, ts)
	err := joinIndexed("stripe/sync", errs)
	lost := slices.Clone(absorbed)
	for i, serr := range errs {
		switch {
		case serr == nil:
		case !portals.FailStop(serr):
			return err
		default:
			lost = append(lost, ts[i])
		}
	}
	if len(lost) == 0 || l.survives(lost) {
		return nil
	}
	return errors.Join(ErrUnrecoverable, err)
}

// syncTargets flushes every target concurrently, returning the per-target
// errors (nil when every sync succeeded).
func (e *Engine) syncTargets(p *sim.Proc, targets []storage.Target) []error {
	e.syncRounds.Inc()
	t := e.take()
	defer e.put(t)
	for _, tg := range targets {
		t.ios = append(t.ios, objIO{ref: storage.ObjRef{Node: tg.Node, Port: tg.Port}})
	}
	t.fanOut(p, "stripe/sync", len(t.ios), e.window, t.sync)
	if len(t.errs) == 0 {
		return nil
	}
	return slices.Clone(t.errs) // the record keeps its own
}

// moved sums the bytes the last write fan-out moved.
func (t *transfer) moved() int64 {
	var n int64
	for _, io := range t.ios {
		n += io.moved
	}
	return n
}

// FanOut runs fn(i) for each i in [0, n) on concurrently scheduled simulated
// processes, with at most window calls in flight. Every call runs to
// completion even when siblings fail; the per-request errors come back
// joined, each tagged with its index. window <= 1 (or n == 1) degenerates to
// an inline serial loop on the caller's process, which makes no fan.
func FanOut(p *sim.Proc, name string, n, window int, fn func(wp *sim.Proc, i int) error) error {
	if n <= 1 || window == 1 {
		var errs []error
		for i := 0; i < n; i++ {
			errs = noteErr(errs, n, i, fn(p, i))
		}
		return joinIndexed(name, errs)
	}
	f := &fan{}
	f.bind()
	f.fanOut(p, name, n, window, fn)
	return joinIndexed(name, f.errs)
}

// bind makes the fan's one worker body: it runs the next call until none is
// left.
func (f *fan) bind() {
	f.worker = func(wp *sim.Proc) {
		for f.next < f.n {
			i := f.next
			f.next++
			f.errs = noteErr(f.errs, f.n, i, f.op(wp, i))
			f.wg.Done()
		}
	}
}

// fanOut runs op(i) for each i in [0, n) as FanOut runs its function,
// leaving the per-index errors in f.errs: empty when every call succeeded,
// else one slot per call. The workers share f.worker and one name, so
// allocations do not depend on window.
func (f *fan) fanOut(p *sim.Proc, name string, n, window int, op func(wp *sim.Proc, i int) error) {
	clear(f.errs[:cap(f.errs)])
	f.errs, f.op, f.n, f.next = f.errs[:0], op, n, 0
	if n <= 0 {
		return
	}
	if window <= 0 || window > n {
		window = n
	}
	f.wg.Add(n)
	if window == 1 {
		f.worker(p)
	} else {
		for w := 0; w < window; w++ {
			p.Kernel().Spawn(name, f.worker)
		}
	}
	f.wg.Wait(p)
}

// noteErr records call i's error, making the n slots at the first failure
// over errs' spare capacity, which is clear.
func noteErr(errs []error, n, i int, err error) []error {
	if err != nil {
		if len(errs) == 0 {
			errs = slices.Grow(errs, n)[:n]
		}
		errs[i] = err
	}
	return errs
}

// joinIndexed folds per-request errors into one, tagging each with its
// request index so a partial fan-out failure names the requests that died.
func joinIndexed(name string, errs []error) error {
	var out []error
	for i, err := range errs {
		if err != nil {
			out = append(out, fmt.Errorf("%s[%d]: %w", name, i, err))
		}
	}
	return errors.Join(out...)
}
