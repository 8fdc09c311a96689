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
// name (a restarted server's sampler supersedes its predecessor's).
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
	"sort"
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
	v  atomic.Int64
	fn func() int64 // non-nil: function-backed, v unused
}

// Set stores the level (no-op on a function-backed gauge).
func (g *Gauge) Set(v int64) {
	if g.fn == nil {
		g.v.Store(v)
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
	return g.v.Load()
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

// entry binds one registered name to its instrument.
type entry struct {
	kind Kind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry is the per-cluster instrument table. Create one with
// NewRegistry; the cluster hangs it off the simulated network so every
// service reachable from a portals endpoint shares it.
type Registry struct {
	mu     sync.Mutex
	now    func() sim.Time
	ents   map[string]*entry
	nextID atomic.Int64
}

// NewRegistry creates a registry whose snapshots are stamped by now —
// normally the simulation kernel's virtual clock. now may be nil (zero
// timestamps).
func NewRegistry(now func() sim.Time) *Registry {
	return &Registry{now: now, ents: make(map[string]*entry)}
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

// lookup returns the entry for name, creating it with mk on first
// registration. It panics if name exists with a different kind.
func (r *Registry) lookup(name string, kind Kind, mk func() *entry) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.ents[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("metrics: %q already registered as %v, requested %v", name, e.kind, kind))
		}
		return e
	}
	e := mk()
	r.ents[name] = e
	return e
}

// Counter registers (or finds) a counter under name.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	return r.lookup(name, KindCounter, func() *entry {
		return &entry{kind: KindCounter, c: &Counter{}}
	}).c
}

// Gauge registers (or finds) a settable gauge under name.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	return r.lookup(name, KindGauge, func() *entry {
		return &entry{kind: KindGauge, g: &Gauge{}}
	}).g
}

// GaugeFunc registers a function-backed gauge under name, sampled at
// snapshot time. Re-registering replaces the function (a restarted
// service's sampler supersedes the old one); a name held by a different
// kind panics.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.ents[name]; ok {
		if e.kind != KindGauge {
			panic(fmt.Sprintf("metrics: %q already registered as %v, requested gauge", name, e.kind))
		}
		e.g.fn = fn
		return
	}
	r.ents[name] = &entry{kind: KindGauge, g: &Gauge{fn: fn}}
}

// Histogram registers (or finds) a histogram under name.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return &Histogram{}
	}
	return r.lookup(name, KindHistogram, func() *entry {
		return &entry{kind: KindHistogram, h: &Histogram{}}
	}).h
}

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
func (s Scope) Counter(metric string) *Counter { return s.r.Counter(s.Name(metric)) }

// Gauge registers a settable gauge under the scoped name.
func (s Scope) Gauge(metric string) *Gauge { return s.r.Gauge(s.Name(metric)) }

// GaugeFunc registers a function-backed gauge under the scoped name.
func (s Scope) GaugeFunc(metric string, fn func() int64) { s.r.GaugeFunc(s.Name(metric), fn) }

// Histogram registers a histogram under the scoped name.
func (s Scope) Histogram(metric string) *Histogram { return s.r.Histogram(s.Name(metric)) }

// Snapshot captures every instrument at the current virtual time. Values
// are sorted by name, so two snapshots of one registry align row-for-row
// (instruments are never unregistered).
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.ents))
	for n := range r.ents {
		names = append(names, n)
	}
	sort.Strings(names)
	ents := make([]*entry, len(names))
	for i, n := range names {
		ents[i] = r.ents[n]
	}
	r.mu.Unlock()

	// Read instrument values outside the registry lock: function-backed
	// gauges may consult arbitrary service state.
	snap := Snapshot{At: r.Now(), Values: make([]Value, len(names))}
	for i, n := range names {
		e := ents[i]
		v := Value{Name: n, Kind: e.kind}
		switch e.kind {
		case KindCounter:
			v.Value = float64(e.c.Value())
		case KindGauge:
			v.Value = float64(e.g.Value())
		case KindHistogram:
			v.Hist = e.h.Sample()
			v.Value = float64(v.Hist.N())
		}
		snap.Values[i] = v
	}
	return snap
}

// Sum adds up, as of now, every instrument whose name matches pattern
// (MatchName syntax): counter totals, gauge levels, histogram observation
// counts. It equals Snapshot().Sum(pattern) and copies no histogram.
func (r *Registry) Sum(pattern string) float64 {
	if r == nil {
		return 0
	}
	segs := strings.Split(pattern, ".")
	r.mu.Lock()
	var ents []*entry
	for n, e := range r.ents {
		if matchSegs(segs, strings.Split(n, ".")) {
			ents = append(ents, e)
		}
	}
	r.mu.Unlock()

	// Values are read outside the lock, as in Snapshot; they are whole
	// numbers, so the map's iteration order cannot change the sum.
	total := 0.0
	for _, e := range ents {
		switch e.kind {
		case KindCounter:
			total += float64(e.c.Value())
		case KindGauge:
			total += float64(e.g.Value())
		case KindHistogram:
			total += float64(e.h.N())
		}
	}
	return total
}

// MatchName reports whether a dot-separated pattern matches a metric name.
// Pattern segments are literal or "*", which matches one or MORE name
// segments — instance names may themselves contain dots ("osd0.0"), so
// "storage.*.cap_cache.hits" matches "storage.osd0.0.cap_cache.hits" and
// "rpc.*" matches every rpc metric.
func MatchName(pattern, name string) bool {
	return matchSegs(strings.Split(pattern, "."), strings.Split(name, "."))
}

func matchSegs(ps, ns []string) bool {
	if len(ps) == 0 {
		return len(ns) == 0
	}
	if ps[0] == "*" {
		// Consume one or more name segments.
		for i := 1; i <= len(ns); i++ {
			if matchSegs(ps[1:], ns[i:]) {
				return true
			}
		}
		return false
	}
	return len(ns) > 0 && ps[0] == ns[0] && matchSegs(ps[1:], ns[1:])
}
