// Package trace records and replays application I/O workloads.
//
// A trace is an ordered list of file-system operations — open, read,
// write, sync, close, mkdir, remove — each stamped with the *virtual* time
// it happened, the stream (process) that issued it, the path, the byte
// range, and a content seed. Traces serialize to a versioned, line-oriented
// text format (one op per line, diffable, greppable) so a captured workload
// is a data file: the three scientific examples (jacobi, seismic, climate)
// each ship one under testdata/, and figures.ReplaySweep re-executes them
// against a live mount at adjustable concurrency — scenario diversity as
// data instead of hand-written drivers.
//
// Content travels as a seed, not as bytes: a write records a 64-bit FNV-1a
// digest of its payload (or 0 for synthetic bulk data), and replay
// regenerates a pseudorandom payload of the recorded length from that seed
// via DataFor. Replayed bytes are therefore deterministic and
// length-faithful but not the original application bytes — traces carry no
// user data, only shape.
//
// The replayer (replay.go) executes a trace against anything implementing
// the small Mount interface; internal/stdfs adapts a mounted lwfspfs file
// system to it.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"

	"lwfs/internal/sim"
)

// Op is one recorded operation kind.
type Op uint8

// The operation kinds, in wire-name order.
const (
	OpMkdir Op = iota + 1
	OpCreate
	OpOpen
	OpRead
	OpWrite
	OpSync
	OpClose
	OpRemove
)

var opNames = [...]string{
	OpMkdir:  "mkdir",
	OpCreate: "create",
	OpOpen:   "open",
	OpRead:   "read",
	OpWrite:  "write",
	OpSync:   "sync",
	OpClose:  "close",
	OpRemove: "remove",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// ParseOp inverts Op.String.
func ParseOp(s string) (Op, bool) {
	for o, name := range opNames {
		if name == s {
			return Op(o), true
		}
	}
	return 0, false
}

// Event is one operation in a trace.
//
//   - T is the virtual timestamp the op was issued at.
//   - Stream identifies the recording process (rank, writer vs analyst);
//     replay v1 preserves the recorded global order within a clone and
//     treats streams as provenance labels.
//   - Path is the mount-relative path, always starting with "/", never
//     containing whitespace.
//   - Off/Len are the byte range of read/write ops (0 otherwise).
//   - Seed is the content seed of write ops: SeedOf(data) for real bytes,
//     0 for synthetic bulk payloads. Always 0 for non-writes.
type Event struct {
	T      sim.Time
	Stream int
	Op     Op
	Path   string
	Off    int64
	Len    int64
	Seed   uint64
}

// ValidPath reports whether a path is recordable: absolute, no whitespace
// or control characters, not empty.
func ValidPath(path string) bool {
	if len(path) < 1 || path[0] != '/' {
		return false
	}
	for i := 0; i < len(path); i++ {
		if path[i] <= ' ' || path[i] == 0x7f {
			return false
		}
	}
	return true
}

// Trace is a decoded (or recorded) operation sequence. Events appear in
// issue order, which is nondecreasing in T — the recorder appends ops as
// the single-threaded simulation executes them.
type Trace struct {
	Events []Event
}

// The wire format, version 1 (pinned byte-exactly by a golden-file test):
//
//	lwfstrace v1
//	events <count>
//	<t_ns> <stream> <op> <path> <off> <len> <seed>
//	...
//
// All fields are space-separated decimals except <op> (the Op name) and
// <path>. Off/len/seed are 0 where not meaningful.
const formatHeader = "lwfstrace v1"

// Encode writes the trace in the v1 text format.
func (tr *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s\nevents %d\n", formatHeader, len(tr.Events))
	for i, ev := range tr.Events {
		if !ValidPath(ev.Path) {
			return fmt.Errorf("trace: event %d: bad path %q", i, ev.Path)
		}
		fmt.Fprintf(bw, "%d %d %s %s %d %d %d\n",
			int64(ev.T), ev.Stream, ev.Op, ev.Path, ev.Off, ev.Len, ev.Seed)
	}
	return bw.Flush()
}

// decodePrealloc bounds the events Decode reserves room for up front: the
// header's count is a claim, and the slice grows past this only as event
// lines are actually read.
const decodePrealloc = 4096

// Decode parses the v1 text format. It refuses a negative event count and
// negative stream, offset and length fields.
func Decode(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	if !sc.Scan() || sc.Text() != formatHeader {
		return nil, fmt.Errorf("trace: not a %s file", formatHeader)
	}
	if !sc.Scan() {
		return nil, fmt.Errorf("trace: missing events count")
	}
	var count int
	if _, err := fmt.Sscanf(sc.Text(), "events %d", &count); err != nil || count < 0 {
		return nil, fmt.Errorf("trace: bad events count %q", sc.Text())
	}
	tr := &Trace{Events: make([]Event, 0, min(count, decodePrealloc))}
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 7 {
			return nil, fmt.Errorf("trace: line %d: want 7 fields, got %d", len(tr.Events)+3, len(f))
		}
		var ev Event
		t, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: bad timestamp %q", f[0])
		}
		ev.T = sim.Time(t)
		if ev.Stream, err = strconv.Atoi(f[1]); err != nil || ev.Stream < 0 {
			return nil, fmt.Errorf("trace: bad stream %q", f[1])
		}
		op, ok := ParseOp(f[2])
		if !ok {
			return nil, fmt.Errorf("trace: unknown op %q", f[2])
		}
		ev.Op = op
		if !ValidPath(f[3]) {
			return nil, fmt.Errorf("trace: bad path %q", f[3])
		}
		ev.Path = f[3]
		if ev.Off, err = strconv.ParseInt(f[4], 10, 64); err != nil || ev.Off < 0 {
			return nil, fmt.Errorf("trace: bad offset %q", f[4])
		}
		if ev.Len, err = strconv.ParseInt(f[5], 10, 64); err != nil || ev.Len < 0 {
			return nil, fmt.Errorf("trace: bad length %q", f[5])
		}
		if ev.Seed, err = strconv.ParseUint(f[6], 10, 64); err != nil {
			return nil, fmt.Errorf("trace: bad seed %q", f[6])
		}
		tr.Events = append(tr.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(tr.Events) != count {
		return nil, fmt.Errorf("trace: header says %d events, file holds %d", count, len(tr.Events))
	}
	return tr, nil
}

// Recorder accumulates events. Add is safe to call from any simulation
// process; events arrive in execution order, which is time order.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Add appends one event. Panics on an invalid path or unknown op —
// recording a malformed event is a programming error at the call site.
func (r *Recorder) Add(ev Event) {
	if !ValidPath(ev.Path) {
		panic(fmt.Sprintf("trace: recording bad path %q", ev.Path))
	}
	if ev.Op.String() == fmt.Sprintf("Op(%d)", uint8(ev.Op)) {
		panic(fmt.Sprintf("trace: recording unknown op %d", ev.Op))
	}
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// Len reports how many events have been recorded.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Trace snapshots the recorded events.
func (r *Recorder) Trace() *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	return &Trace{Events: append([]Event(nil), r.events...)}
}

// WriteFile encodes the recording to a file (the examples' -trace flag).
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Trace().Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SeedOf digests real payload bytes into a content seed (64-bit FNV-1a).
// The result is never 0 — seed 0 is reserved to mean "synthetic bulk data,
// length only".
func SeedOf(data []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range data {
		h ^= uint64(b)
		h *= 1099511628211
	}
	if h == 0 {
		return 1
	}
	return h
}

// DataFor expands a content seed into n deterministic pseudorandom bytes
// (splitmix64 stream). Replay uses it so a re-executed write carries real,
// reproducible bytes of the recorded length. DataFor(0, n) — the synthetic
// marker — returns nil; callers send a synthetic payload instead.
func DataFor(seed uint64, n int64) []byte {
	if seed == 0 || n <= 0 {
		return nil
	}
	out := make([]byte, n)
	x := seed
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	// Each step's word lands little-endian; a ragged tail takes the low
	// bytes of one last step.
	b := out
	for len(b) >= 8 {
		binary.LittleEndian.PutUint64(b, next())
		b = b[8:]
	}
	if len(b) > 0 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], next())
		copy(b, w[:])
	}
	return out
}
