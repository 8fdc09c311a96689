package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestEmptySample(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Mean() != 0 || s.StdDev() != 0 || s.Median() != 0 {
		t.Fatalf("empty sample: %+v", s)
	}
}

func TestKnownValues(t *testing.T) {
	var s Sample
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if !almostEqual(s.Mean(), 5) {
		t.Fatalf("mean = %v", s.Mean())
	}
	// Sample stddev of this classic set: sqrt(32/7).
	if want := math.Sqrt(32.0 / 7.0); !almostEqual(s.StdDev(), want) {
		t.Fatalf("stddev = %v want %v", s.StdDev(), want)
	}
	if s.Median() != 4.5 {
		t.Fatalf("median = %v", s.Median())
	}
}

func TestMedianOdd(t *testing.T) {
	var s Sample
	for _, x := range []float64{9, 1, 5} {
		s.Add(x)
	}
	if s.Median() != 5 {
		t.Fatalf("median = %v", s.Median())
	}
}

func TestSingleObservation(t *testing.T) {
	var s Sample
	s.Add(42)
	if s.Mean() != 42 || s.StdDev() != 0 || s.Median() != 42 {
		t.Fatalf("single: mean=%v sd=%v med=%v", s.Mean(), s.StdDev(), s.Median())
	}
}

func TestPercentile(t *testing.T) {
	var s Sample
	for x := 1; x <= 100; x++ {
		s.Add(float64(x))
	}
	// Linear interpolation between closest ranks over 1..100.
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 100}, {50, 50.5}, {99, 99.01}, {25, 25.75},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); !almostEqual(got, c.want) {
			t.Fatalf("p%.0f = %v want %v", c.p, got, c.want)
		}
	}
	// Out-of-range p clamps rather than panicking.
	if s.Percentile(-5) != 1 || s.Percentile(200) != 100 {
		t.Fatalf("clamp: %v %v", s.Percentile(-5), s.Percentile(200))
	}
	var empty Sample
	if empty.Percentile(50) != 0 {
		t.Fatalf("empty percentile = %v", empty.Percentile(50))
	}
	var one Sample
	one.Add(7)
	if one.Percentile(0) != 7 || one.Percentile(99) != 7 {
		t.Fatalf("single-observation percentiles: %v %v", one.Percentile(0), one.Percentile(99))
	}
}

// Property: percentiles are monotone in p, bounded by [min, max], and p50
// agrees with Median.
func TestPercentileInvariants(t *testing.T) {
	prop := func(xs []float64, aRaw, bRaw uint8) bool {
		var s Sample
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true
			}
			s.Add(x)
		}
		if s.N() == 0 {
			return true
		}
		a, b := float64(aRaw)*100/255, float64(bRaw)*100/255
		if a > b {
			a, b = b, a
		}
		if s.Percentile(a) > s.Percentile(b)+1e-9 {
			return false
		}
		if s.Percentile(0) < slices.Min(s.xs)-1e-9 || s.Percentile(100) > slices.Max(s.xs)+1e-9 {
			return false
		}
		return almostEqual(s.Percentile(50), s.Median())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMerge(t *testing.T) {
	var a, b Sample
	a.Add(1)
	a.Add(2)
	b.Add(3)
	a.Merge(&b)
	if a.N() != 3 || !almostEqual(a.Mean(), 2) {
		t.Fatalf("merged: n=%d mean=%v", a.N(), a.Mean())
	}
	if b.N() != 1 {
		t.Fatalf("merge mutated source: n=%d", b.N())
	}
}

func TestString(t *testing.T) {
	var s Sample
	s.Add(10)
	s.Add(20)
	if got := s.String(); got != "15.0 ± 7.1" {
		t.Fatalf("String = %q", got)
	}
}

func TestSeries(t *testing.T) {
	var sample Sample
	sample.Add(100)
	sample.Add(200)
	var series Series
	series.Name = "curve"
	series.Add(4, &sample)
	series.Add(8, &sample)
	if series.At(4) != 150 || series.At(8) != 150 {
		t.Fatalf("At: %v %v", series.At(4), series.At(8))
	}
	if !math.IsNaN(series.At(99)) {
		t.Fatalf("At(absent) = %v", series.At(99))
	}
}

// Property: mean is bounded by [min, max]; stddev is non-negative and zero
// for constant samples; median is bounded by [min, max].
func TestSampleInvariants(t *testing.T) {
	prop := func(xs []float64) bool {
		var s Sample
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true // skip pathological inputs
			}
			// Bound magnitudes to avoid float overflow in the sum of squares.
			if math.Abs(x) > 1e100 {
				return true
			}
			s.Add(x)
		}
		if s.N() == 0 {
			return true
		}
		m := s.Mean()
		if m < slices.Min(s.xs)-1e-6 || m > slices.Max(s.xs)+1e-6 {
			return false
		}
		if s.StdDev() < 0 {
			return false
		}
		med := s.Median()
		return med >= slices.Min(s.xs) && med <= slices.Max(s.xs)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: constant samples have zero stddev and mean == the constant.
func TestConstantSample(t *testing.T) {
	prop := func(c float64, nRaw uint8) bool {
		if math.IsNaN(c) || math.IsInf(c, 0) || math.Abs(c) > 1e150 {
			return true
		}
		n := int(nRaw%20) + 1
		var s Sample
		for i := 0; i < n; i++ {
			s.Add(c)
		}
		return almostEqual(s.Mean(), c) && s.StdDev() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
