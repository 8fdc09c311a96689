// Package metrics is the unified observability surface of the repository:
// one registry of typed instruments replacing the per-service hand-rolled
// counter accessors that every experiment used to re-plumb.
//
// Three instrument kinds cover everything the services count:
//
//   - Counter: a monotone, atomically-updated total (requests served,
//     bytes drained, cache hits). Counters are never reset — a service
//     Crash/Restart keeps its instruments, so totals are monotone across
//     epochs and snapshot diffs stay meaningful through failures.
//   - Gauge: an instantaneous level that may move both ways (free staging
//     window, drain backlog). A gauge can also be function-backed
//     (GaugeFunc), sampled at snapshot time — the natural shape for queue
//     depths already tracked by another structure.
//   - Histogram: a distribution (drain latency), reusing stats.Sample for
//     percentiles.
//
// Services register under hierarchical dot-separated names following the
// scheme <service>.<instance>.<metric>:
//
//	net.cn3.msgs_sent            rpc.osd0.0.served
//	storage.osd0.0.cap_cache.hits burst.bb1.drain.backlog
//	authz.verifies               lock.grants
//
// Registration is get-or-create: registering an existing name with the
// same kind returns the shared instrument (aggregation by collision is
// deliberate — two callers on one node share one counter); registering it
// with a *different* kind panics, because one name must mean one thing.
// A function-backed gauge replaces any previous function under the same
// name (a restarted server's sampler supersedes its predecessor's). Every
// spelling of a name — whole, through nested scopes, or as a dotted metric
// under a shorter scope — is one instrument.
//
// A registry costs almost nothing until it is read: registering allocates
// no name and no map entry of the instrument's own (see record), and full
// names are built by the first Snapshot, Sum or MergedHist and kept. A
// node's own counters (net.<node>.*, portals.<node>.*, rpc.client.<node>.*)
// cost no registration: they are fields of their owners, read through one
// Family per network (AddFamily).
//
// Snapshot captures every instrument with the simulation's *virtual*
// timestamp; Diff of two snapshots yields per-instrument deltas and rates
// over virtual time, which is what `lwfsbench -metrics` prints. All
// instrument updates go through sync/atomic (or a mutex, for histograms),
// so instruments are safe to read from outside the cooperative simulation
// — the race detector stays quiet where the old plain-int64 accessors
// relied on test-ordering luck.
//
// A nil *Registry is fully usable: every constructor returns a working,
// unregistered instrument. Services therefore instrument themselves
// unconditionally and never check whether observability is wired up.
package metrics

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"lwfs/internal/sim"
	"lwfs/internal/stats"
)

// Kind discriminates instrument types.
type Kind uint8

// The instrument kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Counter is a monotonically increasing total. The zero value is ready to
// use (and simply unregistered).
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n < 0 is a programming error; counters are monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the current total.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level. A settable gauge holds an atomic value;
// a function-backed gauge (GaugeFunc) computes it at read time.
type Gauge struct {
	v  Counter      // the level; a registry record keeps a counter here too
	fn func() int64 // non-nil: function-backed, v unused
}

// Set stores the level (no-op on a function-backed gauge).
func (g *Gauge) Set(v int64) {
	if g.fn == nil {
		g.v.v.Store(v)
	}
}

// Add moves the level by delta (no-op on a function-backed gauge).
func (g *Gauge) Add(delta int64) {
	if g.fn == nil {
		g.v.Add(delta)
	}
}

// Value reads the current level.
func (g *Gauge) Value() int64 {
	if g.fn != nil {
		return g.fn()
	}
	return g.v.Value()
}

// Histogram is a distribution of observations, wrapping stats.Sample with
// a lock so observation and snapshotting are race-free.
type Histogram struct {
	mu sync.Mutex
	s  stats.Sample
}

// Observe records one observation.
func (h *Histogram) Observe(x float64) {
	h.mu.Lock()
	h.s.Add(x)
	h.mu.Unlock()
}

// N reports the observation count.
func (h *Histogram) N() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.s.N()
}

// Sample returns a copy of the accumulated sample, safe to merge and take
// percentiles of while observations continue.
func (h *Histogram) Sample() *stats.Sample {
	h.mu.Lock()
	defer h.mu.Unlock()
	cp := &stats.Sample{}
	cp.Merge(&h.s)
	return cp
}

// record is one registered instrument. The registry indexes a name by its
// scope, the name up to its last dot, and keeps one map entry per scope; the
// scope's records form a list through next, each holding only its last name
// segment. Records come from blocks of recordBlock, so registering one
// allocates nothing of its own. Full names are built the first time the
// registry is read (Snapshot, Sum, MergedHist) and kept in its sorted list.
type record struct {
	leaf string  // the last name segment
	next *record // the scope's next record
	idx  int32   // registration order
	kind Kind
	root bool  // the name has no dot
	g    Gauge // a counter is g.v
	h    *Histogram
}

// recordBlock is how many records one allocation holds: 73 records of 56
// bytes fill a 4 KiB size class.
const recordBlock = 73

// value is the record's contribution to a sum: a counter's total, a gauge's
// level, a histogram's observation count.
func (rec *record) value() float64 {
	switch rec.kind {
	case KindCounter:
		return float64(rec.g.v.Value())
	case KindGauge:
		return float64(rec.g.Value())
	default:
		return float64(rec.h.N())
	}
}

// Registry is the per-cluster instrument table. Create one with
// NewRegistry; the cluster hangs it off the simulated network so every
// service reachable from a portals endpoint shares it.
type Registry struct {
	mu      sync.Mutex
	now     func() sim.Time
	root    *record            // the records of names without a dot
	scopes  map[string]*record // scope → its first record
	free    []record           // the current block's unused records
	n       int                // records registered
	unsized int                // bytes of the names not yet built
	named   int                // records 0 to named-1 are in sorted
	fams    []*family
	sorted  []entry // every named instrument in name order; replaced, never modified
	nextID  atomic.Int64
}

// entry is an instrument and its full name: a record or a family counter.
type entry struct {
	name string
	rec  *record
	c    *Counter
}

func (e entry) kind() Kind {
	if e.c != nil {
		return KindCounter
	}
	return e.rec.kind
}

func (e entry) value() float64 {
	if e.c != nil {
		return float64(e.c.Value())
	}
	return e.rec.value()
}

// A Family is an append-only list of owners (a network's nodes, say), each
// holding a counter per leaf, read as the counters <prefix>.<owner>.<leaf>.
// The registry reads it when it is read, as it samples a GaugeFunc.
type Family interface {
	Len() int                     // owners so far
	Name(i int) string            // owner i's instance name
	Counter(i, leaf int) *Counter // owner i's counter for the leaf-th leaf
}

// family is one AddFamily; owners 0 to named-1 are in sorted.
type family struct {
	prefix string
	leaves []string
	f      Family
	named  int
}

// AddFamily adds f's counters, named prefix.<owner>.<leaf>, to the registry
// before f's first owner: they read as registered counters, and a Counter
// of such a name returns the owner's (another kind panics).
func (r *Registry) AddFamily(prefix string, leaves []string, f Family) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fams = append(r.fams, &family{prefix: prefix, leaves: leaves, f: f})
}

// member returns the family counter named scope() + "." + leaf, or nil,
// by a scan of the owners; scope is built only for a family's leaf. The
// caller holds mu.
func (r *Registry) member(scope func() string, leaf string) *Counter {
	for _, fam := range r.fams {
		if j := slices.Index(fam.leaves, leaf); j >= 0 {
			inst, ok := strings.CutPrefix(scope(), fam.prefix+".")
			for i := 0; ok && i < fam.f.Len(); i++ {
				if fam.f.Name(i) == inst {
					return fam.f.Counter(i, j)
				}
			}
		}
	}
	return nil
}

// NewRegistry creates a registry whose snapshots are stamped by now —
// normally the simulation kernel's virtual clock. now may be nil (zero
// timestamps).
func NewRegistry(now func() sim.Time) *Registry {
	return &Registry{now: now, scopes: make(map[string]*record)}
}

// Now reports the registry's current (virtual) time, zero if no clock was
// provided.
func (r *Registry) Now() sim.Time {
	if r == nil || r.now == nil {
		return 0
	}
	return r.now()
}

// NextID returns a small integer unique within the cluster, for callers that
// need to tell their instances apart on the wire (mpi communicators).
func (r *Registry) NextID() int64 {
	if r == nil {
		return 0
	}
	return r.nextID.Add(1)
}

// lookup returns the record named prefix + "." + metric (metric alone when
// prefix is empty), registering it with kind if it is new; a name held by
// another kind panics. A name a family member holds returns that counter
// instead of a record. A dot inside metric moves the record into a deeper
// scope, so every spelling of one name finds one record. The scope's key is
// assembled on the stack, and a string is made of it only for a new scope; a
// record joins an existing scope behind its first, so the map entry stays.
// The caller holds mu.
func (r *Registry) lookup(prefix, metric string, kind Kind) (*record, *Counter) {
	leaf, sub := metric, ""
	dot := strings.LastIndexByte(metric, '.')
	if dot >= 0 {
		sub, leaf = metric[:dot], metric[dot+1:]
	}
	root := dot < 0 && prefix == ""
	var head *record
	scope := prefix
	switch {
	case root:
		head = r.root
	case dot < 0:
		head = r.scopes[prefix]
	case prefix == "":
		scope = sub
		head = r.scopes[sub]
	default:
		var buf [128]byte
		key := append(append(append(buf[:0], prefix...), '.'), sub...)
		if head = r.scopes[string(key)]; head == nil {
			scope = string(key)
		}
	}
	for rec := head; rec != nil; rec = rec.next {
		if rec.leaf == leaf {
			if rec.kind != kind {
				panic(clash(prefix, metric, rec.kind, kind))
			}
			return rec, nil
		}
	}
	if c := r.member(func() string { return strings.TrimSuffix(Scope{prefix: prefix}.Name(sub), ".") }, leaf); c != nil {
		if kind != KindCounter {
			panic(clash(prefix, metric, KindCounter, kind))
		}
		return nil, c
	}

	if len(r.free) == 0 {
		r.free = make([]record, recordBlock)
	}
	rec := &r.free[0]
	r.free = r.free[1:]
	rec.leaf, rec.idx, rec.kind, rec.root = leaf, int32(r.n), kind, root
	r.n++
	if kind == KindHistogram {
		rec.h = &Histogram{}
	}
	if !root {
		r.unsized += len(metric)
		if prefix != "" {
			r.unsized += len(prefix) + 1
		}
	}
	switch {
	case head != nil:
		rec.next, head.next = head.next, rec
	case root:
		r.root = rec
	default:
		r.scopes[scope] = rec
	}
	return rec, nil
}

func clash(prefix, metric string, held, asked Kind) string {
	return fmt.Sprintf("metrics: %q already registered as %v, requested %v",
		Scope{prefix: prefix}.Name(metric), held, asked)
}

// register is lookup under the lock.
func (r *Registry) register(prefix, metric string, kind Kind) (*record, *Counter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lookup(prefix, metric, kind)
}

// Counter registers (or finds) a counter under name. Other kinds register
// through a Scope; Scope("") is the registry's root.
func (r *Registry) Counter(name string) *Counter { return r.Scope("").Counter(name) }

// GaugeFunc registers a function-backed gauge under name, sampled at
// snapshot time. Re-registering replaces the function (a restarted
// service's sampler supersedes the old one); a name held by a different
// kind panics.
func (r *Registry) GaugeFunc(name string, fn func() int64) { r.Scope("").GaugeFunc(name, fn) }

// Scope returns a view of the registry that prefixes every registered name
// with prefix + ".". Scopes nest.
func (r *Registry) Scope(prefix string) Scope { return Scope{r: r, prefix: prefix} }

// Scope is a name-prefixed view of a registry. The zero Scope (and any
// scope of a nil registry) hands out working unregistered instruments.
type Scope struct {
	r      *Registry
	prefix string
}

// Name returns the scope's full name for a metric.
func (s Scope) Name(metric string) string {
	if s.prefix == "" {
		return metric
	}
	return s.prefix + "." + metric
}

// Scope nests: Scope("burst").Scope("bb1") prefixes "burst.bb1.".
func (s Scope) Scope(sub string) Scope { return Scope{r: s.r, prefix: s.Name(sub)} }

// Counter registers a counter under the scoped name.
func (s Scope) Counter(metric string) *Counter {
	if s.r == nil {
		return &Counter{}
	}
	rec, c := s.r.register(s.prefix, metric, KindCounter)
	if c != nil {
		return c
	}
	return &rec.g.v
}

// Gauge registers a settable gauge under the scoped name.
func (s Scope) Gauge(metric string) *Gauge {
	if s.r == nil {
		return &Gauge{}
	}
	rec, _ := s.r.register(s.prefix, metric, KindGauge)
	return &rec.g
}

// GaugeFunc registers a function-backed gauge under the scoped name.
func (s Scope) GaugeFunc(metric string, fn func() int64) {
	if s.r == nil {
		return
	}
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	rec, _ := s.r.lookup(s.prefix, metric, KindGauge)
	rec.g.fn = fn
}

// Histogram registers a histogram under the scoped name.
func (s Scope) Histogram(metric string) *Histogram {
	if s.r == nil {
		return &Histogram{}
	}
	rec, _ := s.r.register(s.prefix, metric, KindHistogram)
	return rec.h
}

// entries returns every instrument with its name, in name order. The
// records registered and the family owners added since the last call are
// named — their names built into one string they share — and sorted in
// behind the ones already in order.
func (r *Registry) entries() []entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	old, total := r.sorted, r.n
	for _, fam := range r.fams {
		total += fam.f.Len() * len(fam.leaves)
	}
	if len(old) == total {
		return old
	}
	named := r.named
	isNew := func(rec *record) bool { return int(rec.idx) >= named }
	byName := func(a, b entry) int { return strings.Compare(a.name, b.name) }
	// The new records are named scope by scope in key order, each scope's
	// names sorted among themselves, so they arrive nearly sorted: a
	// scope's names part only around those of a deeper scope. A stable
	// sort's merges pass over such runs, and over the sorted old ones, in
	// near-linear time.
	keys := make([]string, 0, len(r.scopes))
	for scope, head := range r.scopes {
		for rec := head; rec != nil; rec = rec.next {
			if isNew(rec) {
				keys = append(keys, scope)
				break
			}
		}
	}
	slices.Sort(keys)
	// Strings taken from a Builder stay valid as it grows, and this one
	// grows no further than the names' size, counted as they registered.
	size := r.unsized
	for _, fam := range r.fams {
		for i, n := fam.named, fam.f.Len(); i < n; i++ {
			for _, leaf := range fam.leaves {
				size += len(fam.prefix) + len(fam.f.Name(i)) + len(leaf) + 2
			}
		}
	}
	var b strings.Builder
	b.Grow(size)
	r.unsized, r.named = 0, r.n
	all := append(make([]entry, 0, total), old...)
	for _, scope := range keys {
		from := len(all)
		for rec := r.scopes[scope]; rec != nil; rec = rec.next {
			if isNew(rec) {
				start := b.Len()
				b.WriteString(scope)
				b.WriteByte('.')
				b.WriteString(rec.leaf)
				all = append(all, entry{name: b.String()[start:], rec: rec})
			}
		}
		slices.SortFunc(all[from:], byName)
	}
	for rec := r.root; rec != nil; rec = rec.next {
		if isNew(rec) {
			all = append(all, entry{name: rec.leaf, rec: rec})
		}
	}
	for _, fam := range r.fams {
		for n := fam.f.Len(); fam.named < n; fam.named++ {
			for j, leaf := range fam.leaves {
				start := b.Len()
				b.WriteString(fam.prefix)
				b.WriteByte('.')
				b.WriteString(fam.f.Name(fam.named))
				b.WriteByte('.')
				b.WriteString(leaf)
				all = append(all, entry{name: b.String()[start:], c: fam.f.Counter(fam.named, j)})
			}
		}
	}
	slices.SortStableFunc(all, byName)
	r.sorted = all
	return all
}

// Snapshot captures every instrument at the current virtual time. Values
// are sorted by name, so two snapshots of one registry align row-for-row
// (instruments are never unregistered).
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	// Read instrument values outside the registry lock: function-backed
	// gauges may consult arbitrary service state.
	ents := r.entries()
	snap := Snapshot{At: r.Now(), Values: make([]Value, len(ents))}
	for i, e := range ents {
		v := Value{Name: e.name, Kind: e.kind()}
		if v.Kind == KindHistogram {
			v.Hist = e.rec.h.Sample()
			v.Value = float64(v.Hist.N())
		} else {
			v.Value = e.value()
		}
		snap.Values[i] = v
	}
	return snap
}

// Sum adds up, as of now, every instrument whose name matches pattern
// (MatchName syntax): counter totals, gauge levels, histogram observation
// counts. It equals Snapshot().Sum(pattern) and copies no histogram. A
// pattern without a "*" segment names one instrument, found by its scope
// without building any name.
func (r *Registry) Sum(pattern string) float64 {
	if r == nil {
		return 0
	}
	if !wildcard(pattern) {
		r.mu.Lock()
		e := r.find(pattern)
		r.mu.Unlock()
		if e.rec == nil && e.c == nil {
			return 0
		}
		return e.value()
	}
	total := 0.0
	for _, e := range r.entries() {
		if MatchName(pattern, e.name) {
			total += e.value()
		}
	}
	return total
}

// MergedHist merges, as of now, every histogram whose name matches pattern
// into one sample. It equals Snapshot().MergedHist(pattern) and copies no
// other histogram.
func (r *Registry) MergedHist(pattern string) *stats.Sample {
	out := &stats.Sample{}
	if r == nil {
		return out
	}
	for _, e := range r.entries() {
		if e.kind() == KindHistogram && MatchName(pattern, e.name) {
			e.rec.h.mu.Lock()
			out.Merge(&e.rec.h.s)
			e.rec.h.mu.Unlock()
		}
	}
	return out
}

// find returns the instrument named name (its name left out), or the zero
// entry. The caller holds mu.
func (r *Registry) find(name string) entry {
	head, leaf := r.root, name
	dot := strings.LastIndexByte(name, '.')
	if dot >= 0 {
		head, leaf = r.scopes[name[:dot]], name[dot+1:]
	}
	for rec := head; rec != nil; rec = rec.next {
		if rec.leaf == leaf {
			return entry{rec: rec}
		}
	}
	return entry{c: r.member(func() string { return name[:max(dot, 0)] }, leaf)}
}

// wildcard reports whether a pattern has a "*" segment.
func wildcard(pattern string) bool {
	for rest := pattern; ; {
		seg, after, more := strings.Cut(rest, ".")
		if seg == "*" {
			return true
		}
		if !more {
			return false
		}
		rest = after
	}
}

// MatchName reports whether a dot-separated pattern matches a metric name.
// Pattern segments are literal or "*", which matches one or MORE name
// segments — instance names may themselves contain dots ("osd0.0"), so
// "storage.*.cap_cache.hits" matches "storage.osd0.0.cap_cache.hits" and
// "rpc.*" matches every rpc metric. Segments are compared in place: a match
// allocates nothing.
func MatchName(pattern, name string) bool {
	pseg, prest, pmore := strings.Cut(pattern, ".")
	if pseg == "*" {
		if !pmore {
			return true // the last "*" takes every remaining segment
		}
		// Consume one or more name segments, trying the rest of the
		// pattern after each, while segments remain for it.
		for rest, more := name, true; more; {
			if _, rest, more = strings.Cut(rest, "."); more && MatchName(prest, rest) {
				return true
			}
		}
		return false
	}
	nseg, nrest, nmore := strings.Cut(name, ".")
	if pseg != nseg || pmore != nmore {
		return false
	}
	return !pmore || MatchName(prest, nrest)
}
