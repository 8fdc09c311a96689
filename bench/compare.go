package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compareLogs implements the measuring rule of the choosing-metrics guide,
// section 8, over two -json logs: A is the parent, B the change. Run i of A
// pairs with run i of B; whoever produced the logs alternated which side ran
// first (README shows the loop).
//
//   - A host metric is a gain only when B wins at least nine tenths of the
//     pairs (ties count for neither) and the medians differ by more than the
//     distance between A's quartiles.
//   - An end-to-end host metric whose B median is worse than A's by more
//     than its bound is a regression; one whose run-to-run spread exceeds
//     its bound is printed unresolved, not unchanged.
//   - Virtual-time metrics and counts are compared exactly and reported as
//     counts, never as speed-ups.
const minPairsToClaim = 10

func readLog(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, n, err)
		}
		key := r.Workload
		if r.Traced {
			key += " (traced)"
		}
		out[key] = append(out[key], r)
	}
	return out, sc.Err()
}

func compareLogs(w io.Writer, pathA, pathB string) error {
	a, err := readLog(pathA)
	if err != nil {
		return err
	}
	b, err := readLog(pathB)
	if err != nil {
		return err
	}
	var keys []string
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		return fmt.Errorf("compare: %s and %s share no workload", pathA, pathB)
	}
	for _, k := range keys {
		ra, rb := a[k], b[k]
		pairs := min(len(ra), len(rb))
		fmt.Fprintf(w, "## %s: %d pairs (A=%s, B=%s)\n", k, pairs, pathA, pathB)
		failedA, failedB := 0, 0
		for i := 0; i < pairs; i++ {
			failedA += ra[i].Failed
			failedB += rb[i].Failed
		}
		if failedB > failedA {
			fmt.Fprintf(w, "   operations failed: A=%d B=%d — no gain counts while B fails more\n", failedA, failedB)
		}
		defs := endToEnd
		if ra[0].Traced {
			defs = perLayer
		}
		for _, d := range defs {
			var va, vb []float64
			for i := 0; i < pairs; i++ {
				va = append(va, ra[i].Metrics[d.Name])
				vb = append(vb, rb[i].Metrics[d.Name])
			}
			fmt.Fprintf(w, "%-36s %s\n", d.Name, verdict(d, va, vb, failedB > failedA))
		}
	}
	return nil
}

// verdict compares one metric's paired values.
func verdict(d metricDef, va, vb []float64, bFailsMore bool) string {
	if d.Exact {
		sameSeeds := true
		for i := range va {
			if va[i] != vb[i] {
				sameSeeds = false
			}
		}
		if sameSeeds {
			return fmt.Sprintf("exact   same in all %d pairs (A[0]=%g %s)", len(va), va[0], d.Unit)
		}
		return fmt.Sprintf("exact   CHANGED: A[0]=%g B[0]=%g %s — a model or count change the PR must declare; not a speed-up", va[0], vb[0], d.Unit)
	}
	ma, mb := median(va), median(vb)
	q1a, q3a := quartiles(va)
	q1b, q3b := quartiles(vb)
	better := func(x, y float64) bool { // x better than y
		if d.Better == "higher" {
			return x > y
		}
		return x < y
	}
	wins, losses := 0, 0
	for i := range va {
		switch {
		case better(vb[i], va[i]):
			wins++
		case better(va[i], vb[i]):
			losses++
		}
	}
	stats := fmt.Sprintf("A %.5g [%.5g, %.5g]  B %.5g [%.5g, %.5g] %s  B wins %d/%d",
		ma, q1a, q3a, mb, q1b, q3b, d.Unit, wins, len(va))
	iqrA := q3a - q1a
	spreadA := 0.0
	if ma != 0 {
		spreadA = iqrA / math.Abs(ma)
	}
	worseBy := 0.0 // share of A's median by which B is worse
	if ma != 0 {
		worseBy = (mb - ma) / math.Abs(ma)
		if d.Better == "higher" {
			worseBy = -worseBy
		}
	}
	switch {
	case len(va) < minPairsToClaim:
		return fmt.Sprintf("host    too few pairs to claim anything (need %d)  %s", minPairsToClaim, stats)
	case d.Bound > 0 && spreadA > d.Bound:
		return fmt.Sprintf("host    UNRESOLVED: A's spread %.1f%% exceeds the %.0f%% bound  %s", spreadA*100, d.Bound*100, stats)
	case d.Bound > 0 && worseBy > d.Bound:
		return fmt.Sprintf("host    REGRESSION: B worse by %.1f%% (bound %.0f%%)  %s", worseBy*100, d.Bound*100, stats)
	case !bFailsMore && 10*wins >= 9*len(va) && math.Abs(mb-ma) > iqrA && better(mb, ma):
		return fmt.Sprintf("host    GAIN  %s", stats)
	case 10*losses >= 9*len(va) && math.Abs(mb-ma) > iqrA && better(ma, mb):
		return fmt.Sprintf("host    worse (within bound)  %s", stats)
	default:
		return fmt.Sprintf("host    unchanged  %s", stats)
	}
}
