package main

import (
	"time"

	"lwfs/internal/sim"
)

// probeSim: sim.dispatch_ns is one timer event scheduled and dispatched;
// sim.switch_ns is one hand-off between two processes (a mailbox ping-pong
// is two).
func probeSim(tiny bool) (map[string]float64, error) {
	n := probeOps(tiny, 100000)
	dispatch, err := medianNs(n, func() (time.Duration, error) {
		k := sim.NewKernel()
		fired := 0
		for i := 0; i < n; i++ {
			k.After(time.Duration(i), func() { fired++ })
		}
		start := time.Now()
		err := k.Run(sim.MaxTime)
		return time.Since(start), err
	})
	if err != nil {
		return nil, err
	}

	rounds := probeOps(tiny, 20000)
	sw, err := medianNs(2*rounds, func() (time.Duration, error) {
		k := sim.NewKernel()
		ping, pong := sim.NewMailbox(k, "ping"), sim.NewMailbox(k, "pong")
		k.Spawn("a", func(p *sim.Proc) {
			for i := 0; i < rounds; i++ {
				ping.Send(i)
				pong.Recv(p)
			}
		})
		k.Spawn("b", func(p *sim.Proc) {
			for i := 0; i < rounds; i++ {
				ping.Recv(p)
				pong.Send(i)
			}
		})
		start := time.Now()
		err := k.Run(sim.MaxTime)
		return time.Since(start), err
	})
	if err != nil {
		return nil, err
	}
	return map[string]float64{"sim.dispatch_ns": dispatch, "sim.switch_ns": sw}, nil
}
