package main

import (
	"time"

	"lwfs/internal/metrics"
	"lwfs/internal/portals"
	"lwfs/internal/qos"
	"lwfs/internal/sim"
)

// tenantReq is a request body the admission controller can classify.
type tenantReq struct{ tenant uint64 }

func (r tenantReq) QoSTenant() (uint64, int64) { return r.tenant, 64 << 10 }

// probeQoS: qos.pick_ns is one Admission.Submit plus the Admission.Next that
// dispatches it, with 8 tenants backlogged (deficit round robin over 8
// queues).
func probeQoS(tiny bool) (map[string]float64, error) {
	const tenants = 8
	n := probeOps(tiny, 200) // MaxQueue defaults to 256
	k := sim.NewKernel()
	var unregistered *metrics.Registry
	adm := qos.NewAdmission(k, unregistered.Scope("probe"), qos.Config{})
	pick, err := medianNs(n, func() (time.Duration, error) {
		var d time.Duration
		var subErr error
		k.Spawn("probe", func(p *sim.Proc) {
			start := time.Now()
			for i := 0; i < n && subErr == nil; i++ {
				subErr = adm.Submit(portals.Delivery{Body: tenantReq{tenant: uint64(1 + i%tenants)}})
			}
			for i := 0; i < n && subErr == nil; i++ {
				adm.Next(p)
			}
			d = time.Since(start)
		})
		if err := k.Run(sim.MaxTime); err != nil {
			return 0, err
		}
		return d, subErr
	})
	if err != nil {
		return nil, err
	}
	return map[string]float64{"qos.pick_ns": pick}, nil
}
