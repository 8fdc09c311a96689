package main

import (
	"fmt"
	"time"

	"lwfs/internal/netsim"
	"lwfs/internal/sim"
)

// probeNetsim: netsim.send_ns is one 1 MiB link-level message fully
// delivered: egress serialization, fabric latency, ingress serialization,
// handler dispatch.
func probeNetsim(tiny bool) (map[string]float64, error) {
	n := probeOps(tiny, 20000)
	k := sim.NewKernel()
	net := netsim.New(k, 2*time.Microsecond)
	cfg := netsim.Config{EgressBW: 6000 << 20, IngressBW: 6000 << 20}
	src, dst := net.AddNode("src", cfg), net.AddNode("dst", cfg)
	delivered := 0
	dst.SetHandler(func(netsim.Message) { delivered++ })
	send, err := medianNs(n, func() (time.Duration, error) {
		start := time.Now()
		for i := 0; i < n; i++ {
			net.Send(netsim.Message{From: src.ID, To: dst.ID, Size: 1 << 20})
		}
		err := k.Run(sim.MaxTime)
		return time.Since(start), err
	})
	if err != nil {
		return nil, err
	}
	if delivered != n*probeBatches {
		return nil, fmt.Errorf("delivered %d of %d messages", delivered, n*probeBatches)
	}
	return map[string]float64{"netsim.send_ns": send}, nil
}
