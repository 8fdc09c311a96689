package trace_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lwfs/internal/sim"
	"lwfs/internal/trace"
)

// goldenTrace is a fixed event sequence exercising every op, both seed
// kinds, and multi-stream provenance. Its encoding is pinned byte-exactly
// by testdata/golden.trace: the wire format is an interchange contract —
// traces recorded by one build must replay on another — so any change here
// is a format version bump, not an edit.
func goldenTrace() *trace.Trace {
	return &trace.Trace{Events: []trace.Event{
		{T: 0, Stream: 0, Op: trace.OpMkdir, Path: "/data"},
		{T: 1500, Stream: 0, Op: trace.OpCreate, Path: "/data/a.bin"},
		{T: 2000, Stream: 0, Op: trace.OpWrite, Path: "/data/a.bin", Off: 0, Len: 4096, Seed: 0xdeadbeef},
		{T: 2500, Stream: 1, Op: trace.OpOpen, Path: "/data/b.bin"},
		{T: 3000, Stream: 1, Op: trace.OpRead, Path: "/data/b.bin", Off: 8192, Len: 1024},
		{T: 3500, Stream: 0, Op: trace.OpWrite, Path: "/data/a.bin", Off: 4096, Len: 65536},
		{T: 4000, Stream: 0, Op: trace.OpSync, Path: "/data/a.bin"},
		{T: 4500, Stream: 1, Op: trace.OpClose, Path: "/data/b.bin"},
		{T: 5000, Stream: 0, Op: trace.OpClose, Path: "/data/a.bin"},
		{T: 5500, Stream: 0, Op: trace.OpRemove, Path: "/data/b.bin"},
	}}
}

func TestWireFormatGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/golden.trace")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := goldenTrace().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("wire format drifted from testdata/golden.trace:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
	dec, err := trace.Decode(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, goldenTrace()) {
		t.Fatalf("golden decode mismatch: %+v", dec.Events)
	}
}

// payload sums the bytes tr's read and write ops move.
func payload(tr *trace.Trace) int64 {
	var b int64
	for _, ev := range tr.Events {
		if ev.Op == trace.OpRead || ev.Op == trace.OpWrite {
			b += ev.Len
		}
	}
	return b
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := goldenTrace()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := trace.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got.Events, tr.Events)
	}
}

// malformedTraces are inputs Decode must refuse. Apart from the field under
// test each is well formed, so the refusal is for the reason named.
var malformedTraces = map[string]string{
	"empty":           "",
	"bad header":      "lwfstrace v9\nevents 0\n",
	"bad count":       "lwfstrace v1\nevents x\n",
	"negative count":  "lwfstrace v1\nevents -1\n",
	"huge count":      "lwfstrace v1\nevents 9223372036854775807\n0 0 create /a 0 0 0\n",
	"short":           "lwfstrace v1\nevents 2\n0 0 create /a 0 0 0\n",
	"bad fields":      "lwfstrace v1\nevents 1\n0 0 create /a 0 0\n",
	"bad op":          "lwfstrace v1\nevents 1\n0 0 99 /a 0 0 0\n",
	"bad path":        "lwfstrace v1\nevents 1\n0 0 create a 0 0 0\n",
	"extra event":     "lwfstrace v1\nevents 0\n0 0 create /a 0 0 0\n",
	"negative stream": "lwfstrace v1\nevents 1\n0 -1 create /a 0 0 0\n",
	"negative offset": "lwfstrace v1\nevents 1\n0 0 write /a -4096 4096 0\n",
	"negative length": "lwfstrace v1\nevents 1\n0 0 read /a 0 -1 0\n",
}

func TestDecodeRejectsMalformed(t *testing.T) {
	for name, in := range malformedTraces {
		if _, err := trace.Decode(strings.NewReader(in)); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		}
	}
	// Each case differs from an accepted trace in its named field only.
	for _, in := range []string{
		"lwfstrace v1\nevents 0\n",
		"lwfstrace v1\nevents 1\n0 0 create /a 0 0 0\n",
		"lwfstrace v1\nevents 1\n0 1 write /a 4096 4096 0\n",
	} {
		if _, err := trace.Decode(strings.NewReader(in)); err != nil {
			t.Errorf("decode refused well-formed %q: %v", in, err)
		}
	}
}

// FuzzDecodeTrace: Decode never panics, and any trace it accepts encodes
// and decodes back to the same trace.
func FuzzDecodeTrace(f *testing.F) {
	files, err := filepath.Glob("testdata/*.trace")
	if err != nil || len(files) == 0 {
		f.Fatalf("no seed traces: %v", err)
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, in := range malformedTraces {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatalf("accepted trace does not encode: %v", err)
		}
		again, err := trace.Decode(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(again, tr) {
			t.Fatalf("round trip changed the trace:\ngot  %+v\nwant %+v", again.Events, tr.Events)
		}
	})
}

func TestSeedOfAndDataFor(t *testing.T) {
	data := []byte("the quick brown fox")
	seed := trace.SeedOf(data)
	if seed == 0 {
		t.Fatal("SeedOf returned the synthetic sentinel for real bytes")
	}
	if trace.SeedOf(data) != seed {
		t.Fatal("SeedOf not deterministic")
	}
	if trace.SeedOf([]byte("other")) == seed {
		t.Fatal("distinct contents hashed alike")
	}
	out := trace.DataFor(seed, 1024)
	if len(out) != 1024 {
		t.Fatalf("DataFor length = %d", len(out))
	}
	if !bytes.Equal(out, trace.DataFor(seed, 1024)) {
		t.Fatal("DataFor not deterministic")
	}
	if bytes.Equal(out[:64], trace.DataFor(seed+1, 64)) {
		t.Fatal("different seeds expanded alike")
	}
	if trace.DataFor(0, 64) != nil {
		t.Fatal("seed 0 must stay synthetic (nil data)")
	}
}

// TestDataForPinned pins the content stream itself, not just its
// determinism: a trace recorded by one build names its payloads by seed,
// so every build must expand a seed to the same bytes. The digests cover
// a lone byte, a ragged word, one exact word, a word plus a byte, and
// long odd lengths.
func TestDataForPinned(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		n    int64
		want string
	}{
		{1, 1, "d1bbd73bb09190bfb883056771e22e997541ed20079793bf33975fe1654581c3"},
		{1, 7, "bddc7811593c83f8f03411612b84666791ed77e52632fd05d427d12f591f07d7"},
		{1, 8, "60c336aab08cf3f29dd703dc4059ee6cd2c0d48c80b6ea2fc38de2dfa533a4bf"},
		{1, 9, "adfa548c3f034afaf881d3e1057966a433be7910b3dc2db139ee0f22fc7078da"},
		{0xdeadbeef, 4095, "ecdd18bc24c8dbd04e7ee877696339ffbc23b64db63396c41bd67e94b4f87a1e"},
		{0x9e3779b97f4a7c15, 1<<20 + 3, "9abb1e662eaee9d9a147763b754c988ea8e13aa7a8896ee563030d1dbf7d6d79"},
	} {
		out := trace.DataFor(c.seed, c.n)
		if int64(len(out)) != c.n {
			t.Fatalf("DataFor(%#x, %d): length %d", c.seed, c.n, len(out))
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(out)); got != c.want {
			t.Errorf("DataFor(%#x, %d): sha256 %s, want %s", c.seed, c.n, got, c.want)
		}
	}
}

var dataSink []byte

func BenchmarkDataFor(b *testing.B) {
	const n = 1 << 20
	b.SetBytes(n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dataSink = trace.DataFor(uint64(i)+1, n)
	}
}

func TestRecorderStreamsAndValidation(t *testing.T) {
	rec := trace.NewRecorder()
	rec.Add(trace.Event{T: 10, Op: trace.OpCreate, Path: "/x"})
	rec.Add(trace.Event{T: 20, Op: trace.OpWrite, Path: "/x", Len: 8, Seed: 7})
	if rec.Len() != 2 {
		t.Fatalf("len = %d", rec.Len())
	}
	tr := rec.Trace()
	if len(tr.Events) != 2 || tr.Events[1].Seed != 7 {
		t.Fatalf("trace = %+v", tr.Events)
	}
	for _, bad := range []trace.Event{
		{Op: trace.OpCreate, Path: "relative"},
		{Op: trace.Op(42), Path: "/x"},
		{Op: trace.OpWrite, Path: "/bad\npath"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%+v) did not panic", bad)
				}
			}()
			rec.Add(bad)
		}()
	}
}

// The embedded example traces are real recordings of the instrumented
// example programs; they must decode, be non-trivial, and carry the ops
// their workloads are made of.
func TestEmbeddedExamples(t *testing.T) {
	names := trace.ExampleNames()
	if !reflect.DeepEqual(names, []string{"climate", "jacobi", "seismic"}) {
		t.Fatalf("examples = %v", names)
	}
	wantOps := map[string]trace.Op{"climate": trace.OpWrite, "jacobi": trace.OpSync, "seismic": trace.OpRead}
	for _, name := range names {
		tr, err := trace.Example(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tr.Events) < 20 {
			t.Fatalf("%s: only %d events", name, len(tr.Events))
		}
		if payload(tr) == 0 {
			t.Fatalf("%s: no payload bytes", name)
		}
		found := false
		for _, ev := range tr.Events {
			if ev.Op == wantOps[name] {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("%s: no %v op recorded", name, wantOps[name])
		}
	}
	if _, err := trace.Example("nope"); err == nil {
		t.Fatal("unknown example did not error")
	}
}

// fakeMount is an in-memory replay target for replayer-semantics tests.
type fakeMount struct {
	t    *testing.T
	dirs []string
	log  []string
	open int // currently open handles
}

type fakeFile struct {
	m    *fakeMount
	name string
	done bool
}

func (m *fakeMount) Mkdir(name string) error { m.dirs = append(m.dirs, name); return nil }
func (m *fakeMount) Remove(name string) error {
	m.log = append(m.log, "rm "+name)
	return nil
}
func (m *fakeMount) Create(name string) (trace.File, error) {
	m.open++
	m.log = append(m.log, "create "+name)
	return &fakeFile{m: m, name: name}, nil
}
func (m *fakeMount) OpenFile(name string) (trace.File, error) {
	m.open++
	m.log = append(m.log, "open "+name)
	return &fakeFile{m: m, name: name}, nil
}

func (f *fakeFile) WriteSeeded(off, length int64, seed uint64) (int64, error) {
	f.m.log = append(f.m.log, "seeded "+f.name)
	return length, nil
}
func (f *fakeFile) WriteSynthetic(off, length int64) (int64, error) {
	f.m.log = append(f.m.log, "synthetic "+f.name)
	return length, nil
}
func (f *fakeFile) ReadDiscard(off, length int64) (int64, error) {
	f.m.log = append(f.m.log, "read "+f.name)
	return length, nil
}
func (f *fakeFile) Sync() error { return nil }
func (f *fakeFile) Close() error {
	if f.done {
		f.m.t.Error("double close")
	}
	f.done = true
	f.m.open--
	return nil
}

func TestReplaySemantics(t *testing.T) {
	tr := goldenTrace()
	k := sim.NewKernel()
	m := &fakeMount{t: t}
	res := trace.StartReplay(k, tr, func(*sim.Proc) (trace.Mount, error) { return m, nil }, trace.Options{
		Concurrency: 1, Clones: 2,
	})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Ops != 2*len(tr.Events) {
		t.Fatalf("ops = %d, want %d", res.Ops, 2*len(tr.Events))
	}
	if want := 2 * payload(tr); res.Bytes != want {
		t.Fatalf("bytes = %d, want %d", res.Bytes, want)
	}
	if m.open != 0 {
		t.Fatalf("%d handles leaked", m.open)
	}
	// Clone roots, then every path under its clone's prefix.
	if !reflect.DeepEqual(m.dirs, []string{"r0", "r0/data", "r1", "r1/data"}) {
		t.Fatalf("dirs = %v", m.dirs)
	}
	for _, entry := range m.log {
		if !strings.Contains(entry, " r0/") && !strings.Contains(entry, " r1/") {
			t.Fatalf("op outside clone prefix: %q", entry)
		}
	}
	// The seeded write and the synthetic write both happened, per clone.
	counts := map[string]int{}
	for _, entry := range m.log {
		counts[strings.Fields(entry)[0]]++
	}
	if counts["seeded"] != 2 || counts["synthetic"] != 2 || counts["read"] != 2 || counts["rm"] != 2 {
		t.Fatalf("op counts = %v", counts)
	}
}

// A second create of a path that is still open replaces its handle; the
// first must be closed, not dropped.
func TestReplayCreateTwiceClosesFirstHandle(t *testing.T) {
	tr := &trace.Trace{Events: []trace.Event{
		{Op: trace.OpCreate, Path: "/f"},
		{Op: trace.OpWrite, Path: "/f", Len: 8, Seed: 7},
		{Op: trace.OpCreate, Path: "/f"},
		{Op: trace.OpClose, Path: "/f"},
	}}
	k := sim.NewKernel()
	m := &fakeMount{t: t}
	res := trace.StartReplay(k, tr, func(*sim.Proc) (trace.Mount, error) { return m, nil }, trace.Options{})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if m.open != 0 {
		t.Fatalf("%d handles leaked", m.open)
	}
}
