package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lwfs/internal/figures"
)

var (
	update = flag.Bool("update", false, "rewrite testdata/golden from this build's output")
	long   = flag.Bool("long", false, "also run the experiments that take tens of seconds")
)

// slow names the experiments whose -quick run takes seconds of host time
// and most of a gigabyte of memory between them; their goldens are checked
// only under -long.
var slow = map[string]bool{"redstorm": true, "ckptinterval": true}

// TestExperimentGoldens pins every experiment's -quick report byte for byte:
// the simulator is deterministic, so any refactor that claims "same
// behaviour" either keeps these files unchanged or says which moved and why.
// Only fig9, fig10, redstorm and replay have a -quick preset; every other
// golden is the full-size report.
func TestExperimentGoldens(t *testing.T) {
	type golden struct {
		file string
		args []string
	}
	cases := []golden{
		{"fig10-plot", []string{"-experiment", "fig10", "-quick", "-plot"}},
		{"meta-metrics", []string{"-experiment", "meta", "-quick", "-metrics"}},
	}
	for _, e := range figures.Experiments {
		if !slow[e.Name] || *long {
			cases = append(cases, golden{e.Name, []string{"-experiment", e.Name, "-quick"}})
		}
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			if !slow[c.file] {
				t.Parallel() // the slow two also hold the most memory: one at a time
			}
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != 0 {
				t.Fatalf("lwfsbench %s: exit %d\n%s", strings.Join(c.args, " "), code, stderr.String())
			}
			path := filepath.Join("testdata", "golden", c.file+".txt")
			if *update {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Fatalf("lwfsbench %s differs from %s (rerun with -update if the change is meant):\n--- got\n%s\n--- want\n%s",
					strings.Join(c.args, " "), path, stdout.String(), want)
			}
		})
	}
}

// TestExperimentsMdQuotesGoldens: a report block EXPERIMENTS.md marks with
// `<!-- golden: NAME -->` on the line before its fence must be
// testdata/golden/NAME.txt line for line, trailing blank lines aside, so the
// record cannot drift from what the model prints.
func TestExperimentsMdQuotesGoldens(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(doc), "\n")
	marked := map[string]bool{}
	for i, line := range lines {
		name, ok := strings.CutPrefix(line, "<!-- golden: ")
		if !ok {
			continue
		}
		if name, ok = strings.CutSuffix(name, " -->"); !ok || i+1 == len(lines) || lines[i+1] != "```" {
			t.Errorf("EXPERIMENTS.md:%d: %q is not a golden marker on the line before a ``` fence", i+1, line)
			continue
		}
		marked[name] = true
		end := i + 2
		for end < len(lines) && lines[end] != "```" {
			end++
		}
		golden, err := os.ReadFile(filepath.Join("testdata", "golden", name+".txt"))
		if err != nil {
			t.Errorf("EXPERIMENTS.md:%d: %v", i+1, err)
			continue
		}
		if diff := lineDiff(trimBlank(lines[i+2:end]), trimBlank(strings.Split(string(golden), "\n"))); diff != "" {
			t.Errorf("EXPERIMENTS.md:%d: the %s block differs from testdata/golden/%s.txt (- document, + golden):\n%s",
				i+1, name, name, diff)
		}
	}
	for _, name := range []string{"rebuild", "qos", "meta"} {
		if !marked[name] {
			t.Errorf("EXPERIMENTS.md has no <!-- golden: %s --> block", name)
		}
	}
}

// trimBlank drops trailing empty lines.
func trimBlank(lines []string) []string {
	for len(lines) > 0 && lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	return lines
}

// lineDiff lists the lines where got and want differ, position by position
// ("-" got's, "+" want's); "" means they are equal.
func lineDiff(got, want []string) string {
	var b strings.Builder
	for i := 0; i < max(len(got), len(want)); i++ {
		if i < len(got) && i < len(want) && got[i] == want[i] {
			continue
		}
		if i < len(got) {
			fmt.Fprintf(&b, "-%d: %s\n", i+1, got[i])
		}
		if i < len(want) {
			fmt.Fprintf(&b, "+%d: %s\n", i+1, want[i])
		}
	}
	return b.String()
}

// allOrder is the order `-experiment all` has always run in.
const allOrder = "table1 table2 fig9 fig10 petaflop security filtering faults burst recovery stripe rebuild meta qos redstorm ckptinterval replay collective"

func TestExperimentTable(t *testing.T) {
	var names []string
	seen := map[string]bool{}
	for _, e := range figures.Experiments {
		if e.Name == "" || e.Name == "all" || seen[e.Name] {
			t.Errorf("experiment name %q is empty, reserved or repeated", e.Name)
		}
		if e.Doc == "" || e.Run == nil {
			t.Errorf("experiment %q lacks a Doc or a Run", e.Name)
		}
		seen[e.Name] = true
		names = append(names, e.Name)
	}
	if got := strings.Join(names, " "); got != allOrder {
		t.Errorf("table order:\n got %s\nwant %s", got, allOrder)
	}
	for name := range slow {
		if !seen[name] {
			t.Errorf("slow list names %q, which is not in the table", name)
		}
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h: exit %d, want 0", code)
	}
	listed := map[string]int{}
	for _, line := range strings.Split(stderr.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			listed[f[0]]++
		}
	}
	for _, name := range names {
		if listed[name] != 1 {
			t.Errorf("flag help lists %q %d times, want once:\n%s", name, listed[name], stderr.String())
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("wrote to stdout: %q", stdout.String())
	}
	for _, e := range figures.Experiments {
		if !strings.Contains(stderr.String(), e.Name) {
			t.Errorf("error does not name %q:\n%s", e.Name, stderr.String())
		}
	}

	// Out-of-range sweep flags are a bad command line too, refused before
	// any experiment runs: one message, nothing on stdout.
	for _, args := range [][]string{
		{"-clients", "1,x"},
		{"-experiment", "fig10", "-servers", "0"},
		{"-experiment", "burst", "-trials", "-2"},
		{"-experiment", "fig9", "-clients", "0"},
		{"-experiment", "stripe", "-mb-per-proc", "-4"},
	} {
		stdout.Reset()
		stderr.Reset()
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2", strings.Join(args, " "), code)
		}
		if stdout.Len() != 0 || strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("%s: stdout %q, stderr %q; want one error line and no report",
				strings.Join(args, " "), stdout.String(), stderr.String())
		}
	}
}

// -json, -cpuprofile and -memprofile observe a run without changing what it
// prints: one cost line per experiment, two non-empty profiles.
func TestCostLogAndProfiles(t *testing.T) {
	dir := t.TempDir()
	log, cpu, mem := filepath.Join(dir, "cost.jsonl"), filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	var stdout, stderr bytes.Buffer
	args := []string{"-experiment", "faults", "-quick", "-json", log, "-cpuprofile", cpu, "-memprofile", mem}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "faults.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("observing the run changed its report:\n%s", stdout.String())
	}

	raw, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Experiment string   `json:"experiment"`
		WallS      *float64 `json:"wall_s"`
		AllocBytes *uint64  `json:"alloc_bytes"`
		PeakRSSMB  *float64 `json:"peak_rss_mb"`
		Points     *int     `json:"points"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatalf("cost log is not one JSON object: %v\n%s", err, raw)
	}
	if c.Experiment != "faults" || c.WallS == nil || *c.WallS <= 0 || c.AllocBytes == nil || *c.AllocBytes == 0 ||
		c.PeakRSSMB == nil || *c.PeakRSSMB <= 0 || c.Points == nil || *c.Points != 4 {
		t.Errorf("cost line %s: want faults, positive wall_s, alloc_bytes and peak_rss_mb, and the sweep's 4 points", raw)
	}
	for _, prof := range []string{cpu, mem} {
		if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
			t.Errorf("profile %s: %v, want a non-empty file", filepath.Base(prof), err)
		}
	}

	if code := run([]string{"-experiment", "table1", "-json", filepath.Join(dir, "no", "such", "dir")}, &stdout, &stderr); code != 1 {
		t.Errorf("unwritable -json file: exit %d, want 1", code)
	}
}
