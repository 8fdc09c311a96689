package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
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

// slow names the experiments whose report takes seconds of host time; their
// goldens are checked only under -long.
var slow = map[string]bool{"fig9": true, "redstorm": true, "ckptinterval": true, "replay": true}

// TestExperimentGoldens pins every experiment's report byte for byte: the
// simulator is deterministic, so any refactor that claims "same behaviour"
// either keeps these files unchanged or says which moved and why. Three
// more cases pin flags that change a report: -plot, -metrics, and the sizing
// flags (fig9-small, a fig9 sweep cheap enough for every run).
func TestExperimentGoldens(t *testing.T) {
	type golden struct {
		file string
		args []string
	}
	cases := []golden{
		{"fig10-plot", []string{"-experiment", "fig10", "-plot"}},
		{"meta-metrics", []string{"-experiment", "meta", "-metrics"}},
		{"fig9-small", []string{"-experiment", "fig9", "-servers", "2,8,16", "-clients", "1,4,16,48", "-trials", "2", "-mb-per-proc", "64"}},
	}
	for _, e := range figures.Experiments {
		if !slow[e.Name] || *long {
			cases = append(cases, golden{e.Name, []string{"-experiment", e.Name}})
		}
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			if !slow[c.file] {
				t.Parallel() // the slow ones also hold the most memory: one at a time
			}
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != 0 {
				t.Fatalf("lwfsbench %s: exit %d\n%s", strings.Join(c.args, " "), code, stderr.String())
			}
			path := goldenPath(c.file)
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

func goldenPath(name string) string { return filepath.Join("testdata", "golden", name+".txt") }

// readGolden is testdata/golden/NAME.txt as lines, trailing blank lines aside.
func readGolden(name string) ([]string, error) {
	b, err := os.ReadFile(goldenPath(name))
	return trimBlank(strings.Split(string(b), "\n")), err
}

// TestExperimentsMdQuotesGoldens: a report block EXPERIMENTS.md marks with
// `<!-- golden: NAME -->` on the line before its fence must be
// testdata/golden/NAME.txt line for line, trailing blank lines aside, so the
// record cannot drift from what the model prints. Under -update it first
// rewrites those blocks from the golden files (TestExperimentGoldens, which
// runs before it, has rewritten them by then).
func TestExperimentsMdQuotesGoldens(t *testing.T) {
	path := filepath.Join("..", "..", "EXPERIMENTS.md")
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(doc), "\n")
	if *update {
		if lines, err = quoteGoldens(lines, readGolden); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blocks, err := markedBlocks(lines)
	if err != nil {
		t.Fatal(err)
	}
	marked := map[string]bool{}
	for _, b := range blocks {
		marked[b.name] = true
		golden, err := readGolden(b.name)
		if err != nil {
			t.Errorf("EXPERIMENTS.md:%d: %v", b.marker+1, err)
			continue
		}
		if diff := lineDiff(trimBlank(lines[b.body:b.end]), golden); diff != "" {
			t.Errorf("EXPERIMENTS.md:%d: the %s block differs from %s (- document, + golden):\n%s",
				b.marker+1, b.name, goldenPath(b.name), diff)
		}
	}
	for _, name := range []string{"fig9", "fig10", "faults", "burst", "recovery", "stripe", "rebuild", "qos", "meta", "redstorm", "ckptinterval", "replay"} {
		if !marked[name] {
			t.Errorf("EXPERIMENTS.md has no <!-- golden: %s --> block", name)
		}
	}
}

// mdBlock is one report block a document marks with `<!-- golden: NAME -->`
// on the line before its opening fence: lines[body:end] is what the fences
// enclose.
type mdBlock struct {
	name              string
	marker, body, end int
}

// markedBlocks finds lines' marked blocks. A marker that is not on the line
// before a ``` fence, or whose block is never closed, is an error.
func markedBlocks(lines []string) ([]mdBlock, error) {
	var blocks []mdBlock
	for i, line := range lines {
		name, ok := strings.CutPrefix(line, "<!-- golden: ")
		if !ok {
			continue
		}
		if name, ok = strings.CutSuffix(name, " -->"); !ok || i+1 == len(lines) || lines[i+1] != "```" {
			return nil, fmt.Errorf("line %d: %q is not a golden marker on the line before a ``` fence", i+1, line)
		}
		end := i + 2
		for end < len(lines) && lines[end] != "```" {
			end++
		}
		if end == len(lines) {
			return nil, fmt.Errorf("line %d: the %s block is not closed", i+1, name)
		}
		blocks = append(blocks, mdBlock{name, i, i + 2, end})
	}
	return blocks, nil
}

// quoteGoldens returns lines with each marked block's body replaced by its
// golden report; everything outside the marked blocks is kept as it is.
func quoteGoldens(lines []string, golden func(name string) ([]string, error)) ([]string, error) {
	blocks, err := markedBlocks(lines)
	if err != nil {
		return nil, err
	}
	var out []string
	prev := 0
	for _, b := range blocks {
		report, err := golden(b.name)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", b.marker+1, err)
		}
		out = append(append(out, lines[prev:b.body]...), report...)
		prev = b.end
	}
	return append(out, lines[prev:]...), nil
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
		{"-experiment", "stripe", "-mb-per-proc", "9223372036854775807"},
		{"-experiment", "burst", "-mb-per-proc", "17592186044416"},
		{"-experiment", "fig9", "-servers", "2,2"},
		{"-experiment", "fig10", "-servers", "3"},
		{"-clients", "4,1,4"},
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

	// There is no -quick: every experiment has one size, and the sizing
	// flags above spell a smaller run.
	stdout.Reset()
	if code := run([]string{"-experiment", "fig9", "-quick"}, &stdout, io.Discard); code != 2 || stdout.Len() != 0 {
		t.Errorf("-quick: exit %d, stdout %q; want 2 and no report", code, stdout.String())
	}
}

// -json, -cpuprofile and -memprofile observe a run without changing what it
// prints: one cost line per experiment, two non-empty profiles.
func TestCostLogAndProfiles(t *testing.T) {
	dir := t.TempDir()
	log, cpu, mem := filepath.Join(dir, "cost.jsonl"), filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	var stdout, stderr bytes.Buffer
	args := []string{"-experiment", "faults", "-json", log, "-cpuprofile", cpu, "-memprofile", mem}
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

// BENCH_experiments.json, the committed host-cost ledger (README: `go run
// ./cmd/lwfsbench -experiment all -json BENCH_experiments.json`), is a
// full -json log: every experiment in the table has exactly one row, and
// that row has a wall time.
func TestBenchExperimentsLedger(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_experiments.json"))
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]int{}
	dec := json.NewDecoder(bytes.NewReader(raw))
	for dec.More() {
		var c cost
		if err := dec.Decode(&c); err != nil {
			t.Fatalf("BENCH_experiments.json: %v", err)
		}
		if c.WallS > 0 {
			rows[c.Experiment]++
		}
	}
	for _, e := range figures.Experiments {
		if rows[e.Name] != 1 {
			t.Errorf("BENCH_experiments.json has %d rows for %s with wall_s > 0, want 1", rows[e.Name], e.Name)
		}
	}
}

// -update's rewrite of EXPERIMENTS.md: a stale marked block takes its
// golden's lines, and nothing outside the marked blocks moves.
func TestQuoteGoldens(t *testing.T) {
	goldens := map[string][]string{"a": {"# report a", "1  2"}, "b": {"b"}}
	read := func(name string) ([]string, error) {
		if g, ok := goldens[name]; ok {
			return g, nil
		}
		return nil, fmt.Errorf("no golden %q", name)
	}
	doc := strings.Split("# Doc\n\nprose\n<!-- golden: a -->\n```\n# report a\n1  9\nstale\n```\n\nmore prose\n```\nunmarked\n```\n<!-- golden: b -->\n```\n```\nend\n", "\n")
	got, err := quoteGoldens(doc, read)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split("# Doc\n\nprose\n<!-- golden: a -->\n```\n# report a\n1  2\n```\n\nmore prose\n```\nunmarked\n```\n<!-- golden: b -->\n```\nb\n```\nend\n", "\n")
	if diff := lineDiff(got, want); diff != "" {
		t.Errorf("rewrite (- got, + want):\n%s", diff)
	}
	if again, err := quoteGoldens(got, read); err != nil || lineDiff(again, got) != "" {
		t.Errorf("rewriting a current document changed it (err %v)", err)
	}

	for _, bad := range []string{
		"<!-- golden: nosuch -->\n```\n```",   // names a missing golden
		"<!-- golden: a -->\nprose\n```\n```", // not on the line before a fence
		"<!-- golden: a -->\n```\nnever closed",
	} {
		if _, err := quoteGoldens(strings.Split(bad, "\n"), read); err == nil {
			t.Errorf("%q: rewritten, want an error", bad)
		}
	}
}
