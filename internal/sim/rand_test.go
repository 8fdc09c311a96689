package sim

import (
	"testing"
	"time"
)

func TestRandDeterministicGivenSeed(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequence diverged at %d", i)
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("different seeds produced %d/100 identical values", same)
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		if n := r.Int63n(17); n < 0 || n >= 17 {
			t.Fatalf("Int63n(17) = %d", n)
		}
		if d := r.Duration(time.Millisecond); d < 0 || d >= time.Millisecond {
			t.Fatalf("Duration = %v", d)
		}
	}
	if r.Duration(0) != 0 {
		t.Fatal("Duration(0) != 0")
	}
}

func TestRandRoughlyUniform(t *testing.T) {
	r := NewRand(1)
	buckets := make([]int, 10)
	const n = 10000
	for i := 0; i < n; i++ {
		buckets[r.Intn(10)]++
	}
	for i, c := range buckets {
		if c < n/10-300 || c > n/10+300 {
			t.Fatalf("bucket %d = %d, far from %d", i, c, n/10)
		}
	}
}
