package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestBadCommandLines: every out-of-range flag and any positional argument
// is refused before anything runs, with one error line, exit 2 and nothing
// on stdout.
func TestBadCommandLines(t *testing.T) {
	for _, args := range [][]string{
		{"-procs", "0"},
		{"-procs", "-1"},
		{"-servers", "0"},
		{"-servers", "3"},
		{"-mb", "0"},
		{"-mb", "-1"},
		{"-mb", "17592186044416"},
		{"extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2", strings.Join(args, " "), code)
		}
		if stdout.Len() != 0 || strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("%s: stdout %q, stderr %q; want one error line and no report",
				strings.Join(args, " "), stdout.String(), stderr.String())
		}
	}
}

// TestSmallRun: a small valid run prints a row per implementation and
// restores every rank of the demo checkpoint through its manifest.
func TestSmallRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-procs", "2", "-mb", "1", "-servers", "2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	out := stdout.String()
	for _, row := range []string{"Lustre, one shared file", "Lustre, file per process", "LWFS, object per process"} {
		if strings.Count(out, "\n"+row+" ") != 1 {
			t.Errorf("want one %q row in\n%s", row, out)
		}
	}
	for rank := 0; rank < demoRanks; rank++ {
		want := fmt.Sprintf("  restored %q\n", fmt.Sprintf("rank %d: iteration=40000 residual=1.2e-9", rank))
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in\n%s", want, out)
		}
	}
	if stderr.Len() != 0 {
		t.Errorf("stderr %q, want nothing", stderr.String())
	}
}
