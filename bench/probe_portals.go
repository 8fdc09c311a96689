package main

import (
	"time"

	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
)

// probePortals: portals.rpc_ns is one null RPC round trip (128-byte request
// and reply) between two endpoints: Caller.Call, the server's worker, and
// the four link-level messages under them.
func probePortals(tiny bool) (map[string]float64, error) {
	n := probeOps(tiny, 10000)
	k := sim.NewKernel()
	net := netsim.New(k, 10*time.Microsecond)
	cfg := netsim.Config{EgressBW: 230 << 20, IngressBW: 230 << 20}
	client := portals.NewEndpoint(net, net.AddNode("client", cfg))
	server := portals.NewEndpoint(net, net.AddNode("server", cfg))
	const pt portals.Index = 10
	portals.Serve(server, pt, "null", 2, func(_ *sim.Proc, _ netsim.NodeID, req interface{}) (interface{}, error) {
		return req, nil
	})
	caller := portals.NewCaller(client)
	rpc, err := medianNs(n, func() (time.Duration, error) {
		var callErr error
		k.Spawn("probe", func(p *sim.Proc) {
			for i := 0; i < n && callErr == nil; i++ {
				_, callErr = caller.Call(p, server.Node(), pt, i, 128, 128)
			}
		})
		start := time.Now()
		if err := k.Run(sim.MaxTime); err != nil {
			return 0, err
		}
		return time.Since(start), callErr
	})
	if err != nil {
		return nil, err
	}
	return map[string]float64{"portals.rpc_ns": rpc}, nil
}
