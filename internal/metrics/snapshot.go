package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"lwfs/internal/sim"
	"lwfs/internal/stats"
)

// Value is one instrument's state inside a snapshot. For counters and
// gauges Value is the total/level; for histograms Value is the observation
// count and Hist carries a copy of the sample (merge-able, percentile-able
// after the fact).
type Value struct {
	Name  string
	Kind  Kind
	Value float64
	Hist  *stats.Sample
}

// Snapshot is the state of every instrument at one virtual instant.
type Snapshot struct {
	At     sim.Time
	Values []Value // sorted by name
}

// Get returns the named value and whether it exists.
func (s Snapshot) Get(name string) (Value, bool) {
	i := sort.Search(len(s.Values), func(i int) bool { return s.Values[i].Name >= name })
	if i < len(s.Values) && s.Values[i].Name == name {
		return s.Values[i], true
	}
	return Value{}, false
}

// Value returns the named counter/gauge value (histograms: the count), or
// 0 if absent.
func (s Snapshot) Value(name string) float64 {
	v, _ := s.Get(name)
	return v.Value
}

// Match returns every value whose name matches the pattern (MatchName
// syntax), in name order.
func (s Snapshot) Match(pattern string) []Value {
	var out []Value
	for _, v := range s.Values {
		if MatchName(pattern, v.Name) {
			out = append(out, v)
		}
	}
	return out
}

// Sum adds up every matching counter/gauge value (histograms contribute
// their counts).
func (s Snapshot) Sum(pattern string) float64 {
	total := 0.0
	for _, v := range s.Values {
		if MatchName(pattern, v.Name) {
			total += v.Value
		}
	}
	return total
}

// MergedHist merges every matching histogram into one sample — the
// aggregate population across instances (e.g. drain latency across all
// burst buffers), exact because snapshots carry the full sample.
func (s Snapshot) MergedHist(pattern string) *stats.Sample {
	out := &stats.Sample{}
	for _, v := range s.Match(pattern) {
		if v.Kind == KindHistogram && v.Hist != nil {
			out.Merge(v.Hist)
		}
	}
	return out
}

// Diff computes cur − prev: per-instrument deltas and rates over the
// elapsed virtual time. The receiver convention is cur.Diff(prev).
func (cur Snapshot) Diff(prev Snapshot) Delta { return Delta{Prev: prev, Cur: cur} }

// Delta is the change between two snapshots of one registry.
type Delta struct {
	Prev, Cur Snapshot
}

// Elapsed is the virtual time between the snapshots.
func (d Delta) Elapsed() time.Duration { return d.Cur.At.Sub(d.Prev.At) }

// Row is one instrument's change.
type Row struct {
	Name  string
	Kind  Kind
	Value float64 // value at Cur
	Delta float64 // Cur − Prev (instruments absent from Prev diff against 0)
	Rate  float64 // Delta per virtual second (0 when Elapsed == 0)
	Hist  *stats.Sample
}

// Rows aligns the two snapshots by name. Instruments registered after the
// first snapshot diff against zero.
func (d Delta) Rows() []Row {
	secs := d.Elapsed().Seconds()
	rows := make([]Row, 0, len(d.Cur.Values))
	for _, v := range d.Cur.Values {
		row := Row{Name: v.Name, Kind: v.Kind, Value: v.Value, Delta: v.Value - d.Prev.Value(v.Name), Hist: v.Hist}
		if secs > 0 {
			row.Rate = row.Delta / secs
		}
		rows = append(rows, row)
	}
	return rows
}

// fmtNum renders a metric value: integers without a fraction, everything
// else with one decimal.
func fmtNum(x float64) string {
	if x == float64(int64(x)) {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%.1f", x)
}

func histDetail(h *stats.Sample) string {
	if h == nil || h.N() == 0 {
		return "-"
	}
	return fmt.Sprintf("mean=%.1f p50=%.1f p99=%.1f", h.Mean(), h.Percentile(50), h.Percentile(99))
}

// hitRatios derives `<prefix>.hit_ratio` rows from any `<prefix>.hits` /
// `<prefix>.misses` counter pair present in the snapshot — cache hit
// ratios fall out of the dump without per-service code.
func hitRatios(s Snapshot) []string {
	var out []string
	for _, v := range s.Values {
		if !strings.HasSuffix(v.Name, ".hits") || v.Kind != KindCounter {
			continue
		}
		prefix := strings.TrimSuffix(v.Name, ".hits")
		m, ok := s.Get(prefix + ".misses")
		if !ok {
			continue
		}
		total := v.Value + m.Value
		if total == 0 {
			continue
		}
		out = append(out, fmt.Sprintf("%s.hit_ratio\t%.3f\t(%s/%s)",
			prefix, v.Value/total, fmtNum(v.Value), fmtNum(total)))
	}
	return out
}

// WriteTable dumps the delta as a text table: value, delta and per-virtual-
// second rate per instrument, followed by derived hit ratios over the
// current snapshot. The format is pinned by a guard test — it is what
// `lwfsbench -metrics` emits.
func (d Delta) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "# metrics delta %v -> %v (elapsed %v)\n", d.Prev.At, d.Cur.At, d.Elapsed())
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "name\tkind\tvalue\tdelta\trate/s\tdetail")
	for _, r := range d.Rows() {
		rate := "-"
		if r.Kind != KindGauge && d.Elapsed() > 0 {
			rate = fmt.Sprintf("%.1f", r.Rate)
		}
		detail := "-"
		if r.Kind == KindHistogram {
			detail = histDetail(r.Hist)
		}
		fmt.Fprintf(tw, "%s\t%v\t%s\t%s\t%s\t%s\n", r.Name, r.Kind, fmtNum(r.Value), fmtNum(r.Delta), rate, detail)
	}
	writeRatios(tw, d.Cur)
	tw.Flush()
}

func writeRatios(tw io.Writer, s Snapshot) {
	ratios := hitRatios(s)
	if len(ratios) == 0 {
		return
	}
	fmt.Fprintln(tw, "# derived")
	for _, line := range ratios {
		fmt.Fprintln(tw, line)
	}
}
