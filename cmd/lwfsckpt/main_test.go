package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadCommandLines: every out-of-range flag is refused before anything
// runs, with one error line, exit 2 and nothing on stdout.
func TestBadCommandLines(t *testing.T) {
	for _, args := range [][]string{
		{"-impl", "nosuch"},
		{"-procs", "0"},
		{"-procs", "-3"},
		{"-trials", "0"},
		{"-servers", "0"},
		{"-servers", "3"},
		{"-servers", "7"},
		{"-mb", "0"},
		{"-mb", "-1"},
		{"-mb", "17592186044416"},
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

// TestCSVRun: a small valid run prints the CSV header and one row.
func TestCSVRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-procs", "2", "-mb", "1", "-servers", "2", "-csv"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "impl,procs,") || !strings.HasPrefix(lines[1], "lwfs,2,1,2,1,") {
		t.Fatalf("stdout %q: want the CSV header and one lwfs row", stdout.String())
	}
	if stderr.Len() != 0 {
		t.Errorf("stderr %q, want nothing", stderr.String())
	}
}
