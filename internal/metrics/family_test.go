package metrics

import (
	"slices"
	"testing"
)

// owners is a Family of owners with two counters each, leaves "a" and "b".
type owners struct {
	names []string
	ctrs  [][2]Counter
}

func (o *owners) add(name string) *[2]Counter {
	o.names = append(o.names, name)
	o.ctrs = append(o.ctrs, [2]Counter{})
	return &o.ctrs[len(o.ctrs)-1]
}
func (o *owners) Len() int                     { return len(o.names) }
func (o *owners) Name(i int) string            { return o.names[i] }
func (o *owners) Counter(i, leaf int) *Counter { return &o.ctrs[i][leaf] }

// A family's counters read as registered counters do: in a snapshot, in
// name order among the records, in exact and wildcard sums, through every
// spelling of a name; an owner added after a read is named by the next
// one; and a family name asked for as another kind panics.
func TestFamilyReadsAsRegisteredCounters(t *testing.T) {
	r := NewRegistry(nil)
	o := &owners{ctrs: make([][2]Counter, 0, 8)}
	r.AddFamily("net", []string{"b", "a"}, o)
	r.Counter("net.dropped").Add(5)
	n1 := o.add("n1")
	n1[0].Add(2) // net.n1.b
	n1[1].Add(3) // net.n1.a
	r.Counter("net.n1.z").Inc()

	names := func() (out []string) {
		for _, v := range r.Snapshot().Values {
			out = append(out, v.Name)
		}
		return out
	}
	if got, want := names(), []string{"net.dropped", "net.n1.a", "net.n1.b", "net.n1.z"}; !slices.Equal(got, want) {
		t.Fatalf("snapshot names %v, want %v", got, want)
	}
	n10 := o.add("osd0.0") // a dotted owner name, added after a read
	n10[1].Add(7)
	if got, want := names(), []string{"net.dropped", "net.n1.a", "net.n1.b", "net.n1.z", "net.osd0.0.a", "net.osd0.0.b"}; !slices.Equal(got, want) {
		t.Fatalf("snapshot names after a new owner %v, want %v", got, want)
	}
	if v, ok := r.Snapshot().Get("net.osd0.0.a"); !ok || v.Kind != KindCounter || v.Value != 7 {
		t.Errorf("net.osd0.0.a = %+v, %v; want counter 7", v, ok)
	}
	for pattern, want := range map[string]float64{"net.n1.b": 2, "net.osd0.0.a": 7, "net.*.a": 10, "net.*": 18, "net.n2.a": 0} {
		if got := r.Sum(pattern); got != want {
			t.Errorf("Sum(%q) = %v, want %v", pattern, got, want)
		}
	}
	for i, c := range []*Counter{
		r.Counter("net.n1.a"),
		r.Scope("net").Scope("n1").Counter("a"),
		r.Scope("net").Counter("n1.a"),
	} {
		if c != &n1[1] {
			t.Errorf("spelling %d of net.n1.a is not the owner's counter", i)
		}
	}
	if r.Counter("net.n2.a") == nil || len(names()) != 7 {
		t.Error("a name no owner holds did not register as a record")
	}
	defer func() {
		if recover() == nil {
			t.Error("a gauge under a family counter's name did not panic")
		}
	}()
	r.Scope("net.n1").Gauge("b")
}
