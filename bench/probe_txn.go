package main

import (
	"fmt"
	"runtime"
	"time"

	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/txn"
)

// probeTxn measures the transaction journal through its public append,
// Participant.Log: the host cost of one more write-ahead record on a
// journal that already holds N, and the bytes that append allocates. The
// journal is never truncated, so N creeps up by the 4 records of each batch
// (N to N+80 over the 20 batches).
func probeTxn(tiny bool) (map[string]float64, error) {
	small, large := 1024, 4096
	if tiny {
		small, large = 64, 256
	}
	const per = 4 // appends per batch

	k := sim.NewKernel()
	net := netsim.New(k, 10*time.Microsecond)
	ep := portals.NewEndpoint(net, net.AddNode("server", netsim.Config{EgressBW: 230 << 20, IngressBW: 230 << 20}))
	part := txn.NewParticipant(ep, osd.NewDevice(k, "probe-dev", osd.DefaultDiskParams()), 20)

	records := 0
	logN := func(n int) (time.Duration, error) {
		var logErr error
		var d time.Duration
		k.Spawn("probe", func(p *sim.Proc) {
			start := time.Now()
			for i := 0; i < n && logErr == nil; i++ {
				records++
				logErr = part.Log(p, txn.JournalRecord{Txn: txn.ID(records), Kind: "created", Detail: fmt.Sprintf("obj=%d", records)})
			}
			d = time.Since(start)
		})
		if err := k.Run(sim.MaxTime); err != nil {
			return 0, err
		}
		return d, logErr
	}
	appendNs := func(n int) (float64, error) {
		if _, err := logN(n - records); err != nil {
			return 0, err
		}
		return medianNs(per, func() (time.Duration, error) { return logN(per) })
	}

	out := map[string]float64{}
	var err error
	if out["txn.journal_append_ns_1k"], err = appendNs(small); err != nil {
		return nil, err
	}
	if out["txn.journal_append_ns_4k"], err = appendNs(large); err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := logN(per); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	out["txn.journal_append_bytes_4k"] = float64(after.TotalAlloc-before.TotalAlloc) / per
	return out, nil
}
