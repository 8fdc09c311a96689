package main

import (
	"fmt"
	"runtime/debug"
	"time"
)

// A probe calls one layer's public function in a loop on a bare kernel (no
// cluster around it) and reports the median host ns per call over at least
// probeBatches batches. One probe per file; README lists the exported
// identifiers each one calls.

const probeBatches = 20

type probe struct {
	Name string
	Run  func(tiny bool) (map[string]float64, error)
}

var probes = []probe{
	{"sim", probeSim},
	{"netsim", probeNetsim},
	{"portals", probePortals},
	{"txn", probeTxn},
	{"osd", probeOSD},
	{"qos", probeQoS},
	{"trace", probeTrace},
	{"cluster", probeCluster},
}

func runProbes(tiny bool) (map[string]float64, error) {
	out := map[string]float64{}
	for _, p := range probes {
		vals, err := p.Run(tiny)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.Name, err)
		}
		for name, v := range vals {
			out[name] = v
		}
	}
	return out, nil
}

// medianNs runs batch (which performs ops calls and returns how long they
// took) probeBatches times and returns the median ns per call. The collector
// is off while a batch runs: what a call allocates is reported by the
// *_bytes_* metrics, and when the collector would have run depends on what
// else the process holds, not on the layer. For the same reason free memory
// goes back to the OS first: every probe then allocates from fresh pages,
// whatever ran in the process before it.
func medianNs(ops int, batch func() (time.Duration, error)) (float64, error) {
	debug.FreeOSMemory()
	per := make([]float64, 0, probeBatches)
	for i := 0; i < probeBatches; i++ {
		gc := debug.SetGCPercent(-1)
		d, err := batch()
		debug.SetGCPercent(gc)
		if err != nil {
			return 0, err
		}
		per = append(per, float64(d.Nanoseconds())/float64(ops))
	}
	return median(per), nil
}

// probeOps scales a probe's batch size down for the self-tests.
func probeOps(tiny bool, full int) int {
	if tiny {
		return max(full/50, 4)
	}
	return full
}
