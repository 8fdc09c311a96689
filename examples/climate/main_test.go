package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The embedded climate trace is this program's own recording: the simulation
// is deterministic, so a rerun reproduces the file byte for byte.
func TestTraceMatchesEmbedded(t *testing.T) {
	out := filepath.Join(t.TempDir(), "climate.trace")
	if err := run(out); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../internal/trace/testdata/climate.trace")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the recorded trace differs from internal/trace/testdata/climate.trace")
	}
}
