package main

import (
	"bytes"
	"encoding/json"
	"flag"
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

// slow names the experiments whose -quick run takes 10–40 s of host time;
// their goldens are checked only under -long.
var slow = map[string]bool{"redstorm": true, "ckptinterval": true, "replay": true}

// TestExperimentGoldens pins every experiment's -quick report byte for byte:
// the simulator is deterministic, so any refactor that claims "same
// behaviour" either keeps these files unchanged or says which moved and why.
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
				t.Parallel() // the slow three also hold the most memory: one at a time
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
	if code := run([]string{"-clients", "1,x"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad -clients: exit %d, want 2", code)
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
		c.PeakRSSMB == nil || *c.PeakRSSMB <= 0 || c.Points == nil || *c.Points != 2 {
		t.Errorf("cost line %s: want faults, positive wall_s, alloc_bytes and peak_rss_mb, and the 2 sweep points of -quick", raw)
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
