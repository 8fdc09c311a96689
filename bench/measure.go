package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"lwfs/internal/stats"
)

// hostCost is the host-side price of one measured section.
type hostCost struct {
	WallS      float64
	AllocBytes uint64
	Mallocs    uint64
	NumGC      uint32
	GCCPUFrac  float64 // GC CPU seconds / total CPU seconds over the section
	HeapPeakMB float64 // sampled; 0 unless sampleHeap
	// PeakRSSMB is the process's max resident set when the section ended:
	// what came before it in the process (set-up) counts, what comes after
	// (the read-back check and its buffers) does not.
	PeakRSSMB float64
}

var gcCPUSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readGCCPU() (gc, total float64) {
	metrics.Read(gcCPUSamples)
	return gcCPUSamples[0].Value.Float64(), gcCPUSamples[1].Value.Float64()
}

// measure times fn on the monotonic clock and charges it the allocation it
// caused. The collector runs first so every section starts from the same
// heap state. With sampleHeap (traced runs only: the sampler is tracing
// overhead) a goroutine polls the live heap every 25 ms.
func measure(sampleHeap bool, fn func() error) (hostCost, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gc0, cpu0 := readGCCPU()

	var peak uint64
	stop, done := make(chan struct{}), make(chan struct{})
	if sampleHeap {
		go func() {
			defer close(done)
			s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
			tick := time.NewTicker(25 * time.Millisecond)
			defer tick.Stop()
			for {
				metrics.Read(s)
				if v := s[0].Value.Uint64(); v > peak {
					peak = v
				}
				select {
				case <-stop:
					return
				case <-tick.C:
				}
			}
		}()
	}

	start := time.Now()
	err := fn()
	wall := time.Since(start)

	if sampleHeap {
		close(stop)
		<-done
	}
	runtime.ReadMemStats(&after)
	gc1, cpu1 := readGCCPU()
	c := hostCost{
		WallS:      wall.Seconds(),
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		Mallocs:    after.Mallocs - before.Mallocs,
		NumGC:      after.NumGC - before.NumGC,
		HeapPeakMB: float64(peak) / 1e6,
		PeakRSSMB:  peakRSSMB(),
	}
	if cpu1 > cpu0 {
		c.GCCPUFrac = (gc1 - gc0) / (cpu1 - cpu0)
	}
	return c, err
}

// peakRSSMB is getrusage's max resident set of this process (Linux: KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// median and percentile are stats.Sample's, the repository's convention
// (linear interpolation between closest ranks), over a plain slice.
func median(xs []float64) float64 { return sampleOf(xs).Median() }

func percentile(xs []float64, p float64) float64 { return sampleOf(xs).Percentile(p) }

func sampleOf(xs []float64) *stats.Sample {
	s := &stats.Sample{}
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(xs, n=4)
// does (exclusive method), which is what the driver computes spreads with.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}
