package main

import (
	"os"
	"path/filepath"
	"testing"

	"lwfs/internal/trace"
)

// The embedded jacobi trace was captured under an earlier timing model: a
// rerun records every rank's stream unchanged (ops, paths, byte ranges and
// content seeds) but at other timestamps, so the ranks interleave
// differently in the file. A clone replays events in file order, so the
// file stays as it is; each stream must still match.
func TestTraceMatchesEmbeddedStreamByStream(t *testing.T) {
	out := filepath.Join(t.TempDir(), "jacobi.trace")
	if err := run(out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := trace.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := trace.Example("jacobi")
	if err != nil {
		t.Fatal(err)
	}
	gotStreams, wantStreams := byStream(got), byStream(want)
	if len(gotStreams) != len(wantStreams) {
		t.Fatalf("recorded %d streams, the embedded trace has %d", len(gotStreams), len(wantStreams))
	}
	for s, w := range wantStreams {
		g := gotStreams[s]
		if len(g) != len(w) {
			t.Fatalf("stream %d: recorded %d events, the embedded trace has %d", s, len(g), len(w))
		}
		for i := range w {
			g[i].T, w[i].T = 0, 0
			if g[i] != w[i] {
				t.Fatalf("stream %d event %d: recorded %+v, the embedded trace has %+v", s, i, g[i], w[i])
			}
		}
	}
}

// byStream splits a trace's events by stream, each in file order.
func byStream(tr *trace.Trace) map[int][]trace.Event {
	m := map[int][]trace.Event{}
	for _, ev := range tr.Events {
		m[ev.Stream] = append(m[ev.Stream], ev)
	}
	return m
}
