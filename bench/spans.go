package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"

	"lwfs/internal/sim"
	"lwfs/internal/stdfs"
	"lwfs/internal/trace"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers (spans inside the program are a later issue). Both clocks are
// kept: virtual start/end from the proc's clock, host start/end from the
// monotonic clock, in ns since the recorder was made.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"` // -1 for the root
	Layer     string `json:"layer"`
	Name      string `json:"name"`
	SimStart  int64  `json:"sim_start_ns"`
	SimEnd    int64  `json:"sim_end_ns"`
	HostStart int64  `json:"host_start_ns"`
	HostEnd   int64  `json:"host_end_ns"`
}

// spanRecorder keeps spans in memory; writeSpans dumps them when the traced
// run ends. Simulated processes run one at a time, so no lock is needed.
type spanRecorder struct {
	t0    time.Time
	spans []span
}

func newSpanRecorder(capacity int) *spanRecorder {
	r := &spanRecorder{t0: time.Now(), spans: make([]span, 0, capacity+1)}
	r.spans = append(r.spans, span{ID: 0, Parent: -1, Layer: "bench", Name: "workload"})
	return r
}

func (r *spanRecorder) host() int64 { return int64(time.Since(r.t0)) }

// begin opens a span and returns its id.
func (r *spanRecorder) begin(parent int, layer, name string, now sim.Time) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Layer: layer, Name: name,
		SimStart: int64(now), HostStart: r.host()})
	return id
}

// end closes a span and stretches its ancestors to cover it.
func (r *spanRecorder) end(id int, now sim.Time) {
	h := r.host()
	for ; id >= 0; id = r.spans[id].Parent {
		s := &r.spans[id]
		if int64(now) > s.SimEnd {
			s.SimEnd = int64(now)
		}
		if h > s.HostEnd {
			s.HostEnd = h
		}
	}
}

// simMs lists the virtual durations (ms) of the spans with the given name.
func (r *spanRecorder) simMs(layer, name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Layer == layer && s.Name == name {
			out = append(out, float64(s.SimEnd-s.SimStart)/1e6)
		}
	}
	return out
}

// hostMs lists the host durations (ms) of the spans of a layer.
func (r *spanRecorder) hostMs(layer string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Layer == layer {
			out = append(out, float64(s.HostEnd-s.HostStart)/1e6)
		}
	}
	return out
}

func writeSpans(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".spans.json"), data, 0o644)
}

// mountShim is the trace.Mount the benchmark hands to the replayer: the
// stdfs facade of one worker, plus what only the benchmark knows — which
// clone roots already exist (a second replay phase re-enters them), the
// span recorder of a traced run, and the self-test's fault injection.
// Untraced and fault-free it returns the facade's own file handles, so the
// measured run carries no per-operation wrapper.
type mountShim struct {
	x       *stdfs.FS
	rec     *spanRecorder                     // nil when tracing is off
	rooted  bool                              // clone roots exist: Mkdir of one is a no-op
	corrupt func(name string, off int64) bool // nil outside self-tests
	clone   int                               // current clone's span id
}

func isCloneRoot(name string) bool {
	return strings.HasPrefix(name, "r") && !strings.Contains(name, "/")
}

func (m *mountShim) Mkdir(name string) error {
	root := isCloneRoot(name)
	if m.rec != nil && root {
		m.clone = m.rec.begin(0, "trace", "clone "+name, m.x.Proc().Now())
	}
	if root && m.rooted {
		return nil
	}
	return m.op("mkdir", func() error { return m.x.Mkdir(name) })
}

func (m *mountShim) Remove(name string) error {
	return m.op("remove", func() error { return m.x.Remove(name) })
}

func (m *mountShim) Create(name string) (trace.File, error) {
	var f *stdfs.File
	err := m.op("create", func() (err error) { f, err = m.x.Create(name); return })
	if err != nil {
		return nil, err
	}
	return m.wrap(f, name), nil
}

func (m *mountShim) OpenFile(name string) (trace.File, error) {
	var f *stdfs.File
	err := m.op("open", func() (err error) { f, err = m.x.OpenFile(name); return })
	if err != nil {
		return nil, err
	}
	return m.wrap(f, name), nil
}

func (m *mountShim) wrap(f *stdfs.File, name string) trace.File {
	if m.rec == nil && m.corrupt == nil {
		return f
	}
	return &fileShim{m: m, f: f, name: name}
}

// op runs one facade call inside a span (when tracing).
func (m *mountShim) op(name string, fn func() error) error {
	if m.rec == nil {
		return fn()
	}
	p := m.x.Proc()
	id := m.rec.begin(m.clone, "stdfs", name, p.Now())
	err := fn()
	m.rec.end(id, p.Now())
	return err
}

type fileShim struct {
	m    *mountShim
	f    *stdfs.File
	name string
}

func (s *fileShim) WriteSeeded(off, length int64, seed uint64) (n int64, err error) {
	if s.m.corrupt != nil && seed != 0 && s.m.corrupt(s.name, off) {
		data := trace.DataFor(seed, length)
		data[0] ^= 0x01
		err = s.m.op("write", func() error {
			w, werr := s.f.WriteAt(data, off)
			n = int64(w)
			return werr
		})
		return n, err
	}
	err = s.m.op("write", func() (err error) { n, err = s.f.WriteSeeded(off, length, seed); return })
	return n, err
}

func (s *fileShim) WriteSynthetic(off, length int64) (n int64, err error) {
	err = s.m.op("write", func() (err error) { n, err = s.f.WriteSynthetic(off, length); return })
	return n, err
}

func (s *fileShim) ReadDiscard(off, length int64) (n int64, err error) {
	err = s.m.op("read", func() (err error) { n, err = s.f.ReadDiscard(off, length); return })
	return n, err
}

func (s *fileShim) Sync() error  { return s.m.op("sync", s.f.Sync) }
func (s *fileShim) Close() error { return s.m.op("close", s.f.Close) }
