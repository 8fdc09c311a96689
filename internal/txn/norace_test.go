//go:build !race

package txn_test

import (
	"testing"

	"lwfs/internal/sim"
	"lwfs/internal/testrig"
	"lwfs/internal/txn"
)

// A warm Lock+Unlock round trip allocates nothing: the request and the grant
// ride recycled wire records, their headers in recycled cells. (The race
// detector poisons released records instead of recycling them.)
func TestWarmLockRoundTripAllocatesNothing(t *testing.T) {
	r := testrig.New(3)
	bootLocks(r, 1)
	lc := txn.NewLockClient(r.Eps[2], r.Eps[1].Node(), 1)
	var allocs float64
	r.Go("locker", func(p *sim.Proc) {
		round := func() {
			if _, err := lc.Lock(p, "obj:1", txn.Exclusive); err != nil {
				t.Error(err)
			}
			if err := lc.Unlock(p, "obj:1"); err != nil {
				t.Error(err)
			}
		}
		for i := 0; i < 100; i++ {
			round()
		}
		allocs = testing.AllocsPerRun(1000, round)
	})
	r.Run(t)
	if allocs != 0 {
		t.Errorf("a warm Lock+Unlock round trip makes %.2f allocations, want none", allocs)
	}
}
