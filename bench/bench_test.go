package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// TestCatalogueMatchesManifest: every metric and workload name is well
// formed and BENCHMARK.json says exactly what the catalogue says.
func TestCatalogueMatchesManifest(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, bench defaults to %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
	if strings.Join(m.Command, " ") != "bash bench/run.sh" {
		t.Errorf("command = %v", m.Command)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, catalogue %d", len(m.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not well formed", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range workloads {
		unique(w.Name)
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: manifest %+v, catalogue {%s %s}", i, m.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, catalogue %d", kind, len(got), len(want))
		}
		for i, d := range want {
			unique(d.Name)
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: manifest %+v, catalogue %+v", kind, i, g, d)
			}
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q is not well formed", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better = %q", d.Name, d.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: bound %v in manifest, %v in catalogue (must be in (0, 0.25])", d.Name, g.Bound, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", d.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the driver's limits", len(endToEnd), len(perLayer))
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("the set-up metric must be setup_s, s, lower")
	}
}

// TestWorkloadsRepeatExactly: each workload at tiny size, run twice in this
// process with one seed, yields bit-identical virtual-time results and exact
// per-layer values; another seed changes at least one virtual-time result.
func TestWorkloadsRepeatExactly(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			run := func(seed int64) rep {
				r, err := w.Run(params{Seed: seed, Traced: true, Tiny: true})
				if err != nil {
					t.Fatal(err)
				}
				if r.Failed != 0 || r.Attempted == 0 {
					t.Fatalf("seed %d: %d of %d failed (%v)", seed, r.Failed, r.Attempted, r.Notes)
				}
				return r
			}
			a, b, other := run(1), run(1), run(2)
			for name, v := range a.Sim {
				if b.Sim[name] != v {
					t.Errorf("%s: %v then %v on the same seed", name, v, b.Sim[name])
				}
			}
			for name, v := range a.Layer {
				d, ok := defOf(name)
				if !ok {
					t.Errorf("traced run reports %s, which the catalogue does not list", name)
				}
				if d.Exact && b.Layer[name] != v {
					t.Errorf("%s: %v then %v on the same seed", name, v, b.Layer[name])
				}
			}
			moved := false
			for name, v := range a.Sim {
				if strings.HasPrefix(name, "sim_") && other.Sim[name] != v {
					moved = true
				}
			}
			if !moved {
				t.Errorf("seed 2 left every sim_* value where seed 1 put it: %v", a.Sim)
			}
		})
	}
}

// TestSpanFile: the span file of a traced run parses, ids are positions,
// and every span's parent exists.
func TestSpanFile(t *testing.T) {
	r, err := replayJacobi.run(params{Seed: 1, Traced: true, Tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := writeSpans(dir, "replay_jacobi", r.Spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "replay_jacobi.spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	ops := 0
	for i, s := range spans {
		if s.ID != i {
			t.Fatalf("span %d has id %d", i, s.ID)
		}
		if s.Parent >= i || (s.Parent < 0 && i != 0) {
			t.Fatalf("span %d (%s) has parent %d", i, s.Name, s.Parent)
		}
		if s.SimEnd < s.SimStart || s.HostEnd < s.HostStart {
			t.Fatalf("span %d (%s) ends before it starts: %+v", i, s.Name, s)
		}
		if s.Layer == "stdfs" {
			ops++
			if spans[s.Parent].Layer != "trace" {
				t.Fatalf("operation span %d hangs off %s, not a clone", i, spans[s.Parent].Name)
			}
		}
	}
	if ops == 0 {
		t.Fatal("no operation spans recorded")
	}
}

// TestVerifierCatchesFlippedByte: one byte of one seeded extent, flipped on
// its way into the mount by the benchmark's own wrapper, fails the run.
func TestVerifierCatchesFlippedByte(t *testing.T) {
	clean, err := replayJacobi.run(params{Seed: 1, Tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Failed != 0 {
		t.Fatalf("clean run failed %d checks", clean.Failed)
	}
	bad, err := replayJacobi.run(params{Seed: 1, Tiny: true, Corrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	if bad.Failed == 0 {
		t.Fatalf("verifier passed a run with a flipped byte (%d checks)", bad.Attempted)
	}
}

// TestDriverLines: both kinds of run, at tiny size and in this process,
// report every metric the manifest promises, in the driver's shape.
func TestDriverLines(t *testing.T) {
	w, _ := workloadByName("replay_seismic")
	for _, traced := range []bool{false, true} {
		res, err := runWorkload(localRep, w, 7, 0, traced, true)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("traced=%v: %+v", traced, res)
		}
		line, err := driverLine(res)
		if err != nil {
			t.Fatal(err)
		}
		var obj map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatal(err)
		}
		if len(obj) != 4 {
			t.Errorf("driver line has keys %v, want correct, attempted, failed, metrics", obj)
		}
		var ms map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := json.Unmarshal(obj["metrics"], &ms); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if len(ms) != len(want) {
			t.Errorf("traced=%v: %d metrics on the line, want %d", traced, len(ms), len(want))
		}
		for _, d := range want {
			if m, ok := ms[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("traced=%v: metric %s missing or mis-united: %+v", traced, d.Name, m)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; python gives 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v; python gives 1, 4", q1, q3)
	}
}

// TestCompareVerdicts walks the section-8 rule through its cases.
func TestCompareVerdicts(t *testing.T) {
	wall, _ := defOf("wall_s")
	events, _ := defOf("sim.events_dispatched")
	base := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{1.0, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.5, 0.6, 1.0}
	for _, c := range []struct {
		name   string
		d      metricDef
		a, b   []float64
		bFails bool
		want   string
	}{
		{"gain", wall, base, scale(0.8), false, "GAIN"},
		{"gain refused while B fails more", wall, base, scale(0.8), true, "unchanged"},
		{"regression", wall, base, scale(1 + 2*wall.Bound), false, "REGRESSION"},
		{"worse within bound", wall, base, scale(1 + wall.Bound/2), false, "worse (within bound)"},
		{"within noise", wall, base, base, false, "unchanged"},
		{"spread above bound", wall, noisy, scale(0.8), false, "UNRESOLVED"},
		{"too few pairs", wall, base[:5], scale(0.8)[:5], false, "too few pairs"},
		{"count changed", events, []float64{100, 100}, []float64{90, 90}, false, "CHANGED"},
		{"count same", events, []float64{100, 100}, []float64{100, 100}, false, "same"},
	} {
		if got := verdict(c.d, c.a, c.b, c.bFails); !strings.Contains(got, c.want) {
			t.Errorf("%s: verdict %q, want it to say %q", c.name, got, c.want)
		}
	}
}
