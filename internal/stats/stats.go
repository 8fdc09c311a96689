// Package stats provides the small statistical toolkit the benchmark
// harness uses to report results the way the paper does: mean and standard
// deviation over a minimum of five trials (§4).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates observations.
type Sample struct {
	xs []float64
}

// Add appends an observation.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x) }

// N returns the observation count.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// StdDev returns the sample standard deviation (0 for n < 2).
func (s *Sample) StdDev() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	ss := 0.0
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// Median returns the middle observation (0 for an empty sample).
func (s *Sample) Median() float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	xs := append([]float64(nil), s.xs...)
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) by linear
// interpolation between closest ranks — the convention latency reporting
// uses for p50/p99. Returns 0 for an empty sample; p outside [0, 100] is
// clamped. Percentile(50) matches Median for odd n and interpolates
// identically for even n.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	} else if p > 100 {
		p = 100
	}
	xs := append([]float64(nil), s.xs...)
	sort.Float64s(xs)
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return xs[lo]
	}
	frac := rank - float64(lo)
	return xs[lo] + frac*(xs[hi]-xs[lo])
}

// Merge appends every observation of other into s (for aggregating
// per-server samples into one population before taking percentiles).
func (s *Sample) Merge(other *Sample) {
	s.xs = append(s.xs, other.xs...)
}

// String renders mean ± stddev.
func (s *Sample) String() string {
	return fmt.Sprintf("%.1f ± %.1f", s.Mean(), s.StdDev())
}

// Point is one (x, mean, stddev) entry of a plotted series.
type Point struct {
	X      float64
	Mean   float64
	StdDev float64
}

// Series is a named curve: what one line of a paper figure plots.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point built from a sample.
func (s *Series) Add(x float64, sample *Sample) {
	s.Points = append(s.Points, Point{X: x, Mean: sample.Mean(), StdDev: sample.StdDev()})
}

// At returns the mean at the given x (NaN if absent).
func (s *Series) At(x float64) float64 {
	for _, p := range s.Points {
		if p.X == x {
			return p.Mean
		}
	}
	return math.NaN()
}
