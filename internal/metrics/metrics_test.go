package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"lwfs/internal/sim"
)

// fakeClock is a hand-cranked virtual clock for snapshot timestamp tests.
type fakeClock struct{ t sim.Time }

func (c *fakeClock) now() sim.Time { return c.t }

// TestRegistrationSharing: registering one name twice with the same kind
// yields the SAME instrument — aggregation by collision is the contract two
// callers on one node rely on.
func TestRegistrationSharing(t *testing.T) {
	r := NewRegistry(nil)
	a := r.Counter("svc.reqs")
	b := r.Counter("svc.reqs")
	if a != b {
		t.Fatalf("same name+kind must return the shared counter")
	}
	a.Inc()
	b.Add(2)
	if got := a.Value(); got != 3 {
		t.Fatalf("shared counter = %d, want 3", got)
	}
	g1 := r.Scope("svc").Gauge("level")
	g2 := r.Scope("svc").Gauge("level")
	if g1 != g2 {
		t.Fatalf("same name+kind must return the shared gauge")
	}
	h1 := r.Scope("svc").Histogram("lat")
	h2 := r.Scope("svc").Histogram("lat")
	if h1 != h2 {
		t.Fatalf("same name+kind must return the shared histogram")
	}
}

// TestRegistrationKindCollisionPanics: one name must mean one thing — the
// same name under a different kind is a programming error and panics.
func TestRegistrationKindCollisionPanics(t *testing.T) {
	cases := []struct {
		name string
		seed func(*Registry)
		hit  func(*Registry)
	}{
		{"counter-then-gauge", func(r *Registry) { r.Counter("x") }, func(r *Registry) { r.Scope("").Gauge("x") }},
		{"counter-then-hist", func(r *Registry) { r.Counter("x") }, func(r *Registry) { r.Scope("").Histogram("x") }},
		{"gauge-then-counter", func(r *Registry) { r.Scope("").Gauge("x") }, func(r *Registry) { r.Counter("x") }},
		{"hist-then-gaugefunc", func(r *Registry) { r.Scope("").Histogram("x") }, func(r *Registry) { r.GaugeFunc("x", func() int64 { return 0 }) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry(nil)
			tc.seed(r)
			defer func() {
				if recover() == nil {
					t.Fatalf("kind collision must panic")
				}
			}()
			tc.hit(r)
		})
	}
}

// TestGaugeFuncReplacement: re-registering a function-backed gauge replaces
// the sampler — a restarted server's queue-depth closure supersedes the dead
// incarnation's.
func TestGaugeFuncReplacement(t *testing.T) {
	r := NewRegistry(nil)
	r.GaugeFunc("q.depth", func() int64 { return 7 })
	if got := r.Snapshot().Value("q.depth"); got != 7 {
		t.Fatalf("gauge func = %v, want 7", got)
	}
	r.GaugeFunc("q.depth", func() int64 { return 11 })
	if got := r.Snapshot().Value("q.depth"); got != 11 {
		t.Fatalf("replaced gauge func = %v, want 11", got)
	}
	// A settable gauge upgraded to function-backed reads the function, and
	// Set/Add become no-ops rather than corrupting the reading.
	g := r.Scope("q").Gauge("depth")
	g.Set(99)
	g.Add(5)
	if got := g.Value(); got != 11 {
		t.Fatalf("function-backed gauge after Set/Add = %v, want 11", got)
	}
}

// TestNilRegistrySafe: a nil registry (and the zero scope) hands out working
// unregistered instruments, so services instrument unconditionally.
func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	c := r.Counter("a.b")
	c.Inc()
	if c.Value() != 1 {
		t.Fatalf("unregistered counter must still count")
	}
	g := r.Scope("a").Gauge("g")
	g.Set(4)
	if g.Value() != 4 {
		t.Fatalf("unregistered gauge must still hold a level")
	}
	r.GaugeFunc("a.f", func() int64 { return 1 }) // must not panic
	h := r.Scope("a").Histogram("h")
	h.Observe(1.5)
	if h.N() != 1 {
		t.Fatalf("unregistered histogram must still observe")
	}
	if r.NextID() != 0 || r.Now() != 0 {
		t.Fatalf("nil registry NextID/Now must be zero")
	}
	snap := r.Snapshot()
	if len(snap.Values) != 0 {
		t.Fatalf("nil registry snapshot must be empty")
	}
	var s Scope
	s.Counter("zero.scope").Inc() // zero scope: same guarantee
}

// TestScopeNesting: scopes compose by dot-joining, and the instruments they
// register are shared with direct registration under the full name.
func TestScopeNesting(t *testing.T) {
	r := NewRegistry(nil)
	sc := r.Scope("burst").Scope("bb1").Scope("drain")
	if got := sc.Name("backlog"); got != "burst.bb1.drain.backlog" {
		t.Fatalf("scoped name = %q", got)
	}
	sc.Counter("syncs").Inc()
	if r.Counter("burst.bb1.drain.syncs").Value() != 1 {
		t.Fatalf("scoped counter must alias the fully-qualified name")
	}
}

// TestMatchName: "*" matches one or MORE dot segments, because instance
// names themselves contain dots ("osd0.0").
func TestMatchName(t *testing.T) {
	cases := []struct {
		pattern, name string
		want          bool
	}{
		{"rpc.*.served", "rpc.storage/data.served", true},
		{"rpc.*.served", "rpc.osd0.0.served", true}, // * spans "osd0.0"
		{"rpc.*.served", "rpc.served", false},       // * needs >= 1 segment
		{"rpc.*", "rpc.a.b.c", true},
		{"rpc.*", "rpc", false},
		{"storage.*.cap_cache.hits", "storage.osd0.0.cap_cache.hits", true},
		{"storage.*.cap_cache.hits", "storage.osd0.0.cap_cache.misses", false},
		{"a.b", "a.b", true},
		{"a.b", "a.b.c", false},
		{"*", "anything", true},
		{"*.hits", "x.y.hits", true},
	}
	for _, tc := range cases {
		if got := MatchName(tc.pattern, tc.name); got != tc.want {
			t.Errorf("MatchName(%q, %q) = %v, want %v", tc.pattern, tc.name, got, tc.want)
		}
	}
}

// TestSnapshotDiffRates: deltas divide by elapsed VIRTUAL seconds, gauges
// diff but never rate in the table, and instruments registered between the
// two snapshots diff against zero.
func TestSnapshotDiffRates(t *testing.T) {
	clk := &fakeClock{}
	r := NewRegistry(clk.now)
	c := r.Counter("svc.reqs")
	g := r.Scope("svc").Gauge("backlog")
	c.Add(10)
	g.Set(3)

	clk.t = sim.Time(1 * time.Second)
	prev := r.Snapshot()
	if prev.At != sim.Time(1*time.Second) {
		t.Fatalf("snapshot At = %v, want 1s", prev.At)
	}

	c.Add(40)
	g.Set(8)
	late := r.Counter("svc.late") // registered after the first snapshot
	late.Add(6)
	clk.t = sim.Time(3 * time.Second)
	cur := r.Snapshot()

	d := cur.Diff(prev)
	if d.Elapsed() != 2*time.Second {
		t.Fatalf("elapsed = %v, want 2s", d.Elapsed())
	}
	byName := map[string]Row{}
	for _, row := range d.Rows() {
		byName[row.Name] = row
	}
	if got := byName["svc.reqs"].Rate; got != 20 {
		t.Fatalf("rate(svc.reqs) = %v, want 20 (40 over 2 virtual seconds)", got)
	}
	if got := byName["svc.late"].Rate; got != 3 {
		t.Fatalf("rate(svc.late) = %v, want 3 (diffed against zero)", got)
	}
	if row := byName["svc.backlog"]; row.Delta != 5 || row.Value != 8 {
		t.Fatalf("gauge row = %+v, want delta 5 value 8", row)
	}
	// Zero elapsed time must not divide by zero.
	for _, row := range cur.Diff(cur).Rows() {
		if row.Rate != 0 {
			t.Fatalf("zero-elapsed rate of %s = %v, want 0", row.Name, row.Rate)
		}
	}
}

// TestSnapshotLookups: Get/Value/Match/Sum/MergedHist behave over a sorted
// snapshot.
func TestSnapshotLookups(t *testing.T) {
	r := NewRegistry(nil)
	r.Counter("rpc.a.served").Add(3)
	r.Counter("rpc.b.served").Add(4)
	r.Counter("rpc.b.deduped").Add(9)
	h := r.Scope("burst.bb0.drain").Histogram("latency_ms")
	h.Observe(10)
	h.Observe(20)
	h2 := r.Scope("burst.bb1.drain").Histogram("latency_ms")
	h2.Observe(30)

	snap := r.Snapshot()
	if got := snap.Sum("rpc.*.served"); got != 7 {
		t.Fatalf("Sum(rpc.*.served) = %v, want 7", got)
	}
	if got := snap.Value("rpc.b.deduped"); got != 9 {
		t.Fatalf("Value = %v, want 9", got)
	}
	if _, ok := snap.Get("rpc.missing"); ok {
		t.Fatalf("Get of absent name must report !ok")
	}
	if got := len(snap.Match("burst.*.drain.latency_ms")); got != 2 {
		t.Fatalf("Match = %d hits, want 2", got)
	}
	merged := snap.MergedHist("burst.*.drain.latency_ms")
	if merged.N() != 3 {
		t.Fatalf("MergedHist N = %d, want 3", merged.N())
	}
	if got := merged.Mean(); got != 20 {
		t.Fatalf("MergedHist mean = %v, want 20", got)
	}
}

// TestDumpFormatGuard pins the text format `lwfsbench -metrics` emits. If
// this test breaks, downstream parsing of the dump (and EXPERIMENTS.md
// transcripts) breaks with it — change the format deliberately or not at
// all.
func TestDumpFormatGuard(t *testing.T) {
	clk := &fakeClock{}
	r := NewRegistry(clk.now)
	r.Counter("cache.hits").Add(3)
	r.Counter("cache.misses").Add(1)
	r.Scope("q").Gauge("depth").Set(5)
	h := r.Scope("").Histogram("lat_ms")
	h.Observe(10)
	h.Observe(20)

	clk.t = sim.Time(2 * time.Second)
	prev := r.Snapshot()
	r.Counter("cache.hits").Add(5)
	r.Scope("q").Gauge("depth").Set(2)
	h.Observe(30)
	clk.t = sim.Time(4 * time.Second)
	var deltaBuf strings.Builder
	r.Snapshot().Diff(prev).WriteTable(&deltaBuf)
	wantDelta := strings.Join([]string{
		"# metrics delta 2s -> 4s (elapsed 2s)",
		"name          kind       value  delta  rate/s  detail",
		"cache.hits    counter    8      5      2.5     -",
		"cache.misses  counter    1      0      0.0     -",
		"lat_ms        histogram  3      1      0.5     mean=20.0 p50=20.0 p99=29.8",
		"q.depth       gauge      2      -3     -       -",
		"# derived",
		"cache.hit_ratio  0.889  (8/9)",
		"",
	}, "\n")
	if got := deltaBuf.String(); got != wantDelta {
		t.Errorf("delta table drifted:\n--- got ---\n%s--- want ---\n%s", got, wantDelta)
	}
}

// TestScopeSpellingsShareOneInstrument: a name registered whole, through
// nested scopes, through a dotted scope or as a dotted metric under a
// shorter scope is one instrument, and the kind and GaugeFunc rules hold
// across spellings.
func TestScopeSpellingsShareOneInstrument(t *testing.T) {
	r := NewRegistry(nil)
	c := r.Counter("a.b.c")
	for i, other := range []*Counter{
		r.Scope("a").Scope("b").Counter("c"),
		r.Scope("a").Counter("b.c"),
		r.Scope("a.b").Counter("c"),
		r.Scope("").Counter("a.b.c"),
	} {
		if other != c {
			t.Errorf("spelling %d returned another counter", i)
		}
	}
	// A name without a dot, and one whose scope is the empty string, are
	// two names.
	if r.Counter("x") == r.Counter(".x") {
		t.Error(`"x" and ".x" share a counter`)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("a gauge under a counter's name, spelled another way, did not panic")
			}
		}()
		r.Scope("a").Scope("b").Gauge("c")
	}()

	r.Scope("q").GaugeFunc("depth.now", func() int64 { return 7 })
	r.Scope("q.depth").GaugeFunc("now", func() int64 { return 11 })
	if got := r.Scope("q").Gauge("depth.now").Value(); got != 11 {
		t.Errorf("gauge after replacing its function = %d, want 11", got)
	}
}

// TestSnapshotNamesAndOrder: snapshots list every name in sorted order,
// including names registered between two snapshots (merged into the
// previous order) and names that sort between a scope's records.
func TestSnapshotNamesAndOrder(t *testing.T) {
	r := NewRegistry(nil)
	first := []string{"net.cn1.msgs", "rpc.osd0.0.served", "net.cn1.bytes", "sim.events", "top", "net.cn10.msgs"}
	for _, n := range first {
		r.Counter(n)
	}
	check := func(want []string) {
		t.Helper()
		want = append([]string(nil), want...)
		sort.Strings(want)
		snap := r.Snapshot()
		var got []string
		for _, v := range snap.Values {
			got = append(got, v.Name)
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("snapshot names\n got %v\nwant %v", got, want)
		}
	}
	check(first)
	check(first) // a second read reuses the order
	later := []string{"net.cn1.drops", "a", "rpc.osd0.0.deduped", "zz.z"}
	r.Scope("net").Scope("cn1").Counter("drops")
	r.Counter("a")
	r.Scope("rpc").Counter("osd0.0.deduped")
	r.Scope("zz").Counter("z")
	check(append(first, later...))
}

// TestRegistrySumMatchesSnapshot: Registry.Sum, exact names and patterns
// alike, equals the snapshot's sum, and an absent name sums to zero.
func TestRegistrySumMatchesSnapshot(t *testing.T) {
	r := NewRegistry(nil)
	r.Counter("rpc.a.served").Add(3)
	r.Scope("rpc").Scope("osd0.0").Counter("served").Add(4)
	r.Counter("rpc.osd0.0.deduped").Add(9)
	r.Scope("q").Gauge("depth").Set(5)
	r.Scope("").Histogram("lat").Observe(1)
	snap := r.Snapshot()
	for _, p := range []string{"rpc.*.served", "rpc.*", "*", "rpc.osd0.0.served", "q.depth", "lat", "rpc.missing", "missing", "*.deduped"} {
		if got, want := r.Sum(p), snap.Sum(p); got != want {
			t.Errorf("Registry.Sum(%q) = %v, snapshot says %v", p, got, want)
		}
	}
	if got := r.MergedHist("la*").N(); got != 0 {
		t.Errorf("MergedHist of a literal pattern matched %d observations", got)
	}
	if got := r.MergedHist("*").N(); got != 1 {
		t.Errorf("MergedHist(*) = %d observations, want 1", got)
	}
}

// splitMatch is MatchName as it was written over strings.Split: the
// reference the in-place matcher is checked against.
func splitMatch(ps, ns []string) bool {
	if len(ps) == 0 {
		return len(ns) == 0
	}
	if ps[0] == "*" {
		for i := 1; i <= len(ns); i++ {
			if splitMatch(ps[1:], ns[i:]) {
				return true
			}
		}
		return false
	}
	return len(ns) > 0 && ps[0] == ns[0] && splitMatch(ps[1:], ns[1:])
}

// TestMatchNameAgreesWithSplit: the in-place matcher agrees with the
// segment-list one on every pattern and name built from a few segments,
// empty ones included.
func TestMatchNameAgreesWithSplit(t *testing.T) {
	segs := []string{"a", "b", "*", ""}
	var words []string
	var build func(prefix string, depth int)
	build = func(prefix string, depth int) {
		words = append(words, prefix)
		if depth == 4 {
			return
		}
		for _, s := range segs {
			if prefix == "" && depth == 0 {
				build(s, depth+1)
			} else {
				build(prefix+"."+s, depth+1)
			}
		}
	}
	build("", 0)
	for _, p := range words {
		for _, n := range words {
			if got, want := MatchName(p, n), splitMatch(strings.Split(p, "."), strings.Split(n, ".")); got != want {
				t.Fatalf("MatchName(%q, %q) = %v, want %v", p, n, got, want)
			}
		}
	}
}

// TestMatchAllocatesNothing: matching compares segments in place, so
// MatchName and a snapshot's Sum allocate nothing.
func TestMatchAllocatesNothing(t *testing.T) {
	r := NewRegistry(nil)
	for _, n := range []string{"storage.osd0.0.cap_cache.hits", "storage.osd1.0.cap_cache.hits", "rpc.osd0.0.served"} {
		r.Counter(n).Inc()
	}
	snap := r.Snapshot()
	if n := testing.AllocsPerRun(100, func() {
		MatchName("storage.*.cap_cache.hits", "storage.osd0.0.cap_cache.hits")
		snap.Sum("storage.*.cap_cache.hits")
	}); n != 0 {
		t.Errorf("matching allocated %.1f times, want 0", n)
	}
}

// TestConcurrentRegistrationAndReads: registration, snapshots, sums and
// histogram merges may run on different goroutines (go test -race).
func TestConcurrentRegistrationAndReads(t *testing.T) {
	r := NewRegistry(nil)
	const writers, per = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := r.Scope("w").Scope(fmt.Sprint(w))
			for i := 0; i < per; i++ {
				sc.Counter(fmt.Sprintf("c%d", i)).Inc()
				sc.Scope("h").Histogram("lat").Observe(1)
			}
		}()
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := r.Snapshot()
				if !sort.SliceIsSorted(snap.Values, func(a, b int) bool { return snap.Values[a].Name < snap.Values[b].Name }) {
					t.Error("a snapshot taken during registration is out of order")
					return
				}
				r.Sum("w.*")
				r.MergedHist("w.*.h.lat")
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	if got, want := r.Sum("w.*"), float64(2*writers*per); got != want {
		t.Errorf("Sum(w.*) = %v, want %v", got, want)
	}
	if got, want := len(r.Snapshot().Values), writers*(per+1); got != want {
		t.Errorf("snapshot has %d values, want %d", got, want)
	}
}

// A record block fills its allocation: one record more would not fit in
// 4 KiB, the size class a block is allocated from.
func TestRecordBlockFillsFourKiB(t *testing.T) {
	if size := unsafe.Sizeof(record{}); size*recordBlock > 4096 || size*(recordBlock+1) <= 4096 {
		t.Errorf("%d records of %d bytes: want the most that fit in 4096", recordBlock, size)
	}
}
