//go:build !race

package pfs

import (
	"fmt"
	"runtime"
	"testing"

	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/testrig"
)

// A shared-file write allocates, per stripe unit, only what that unit's write
// RPC allocates: the unit's request is computed from its index and its bytes
// ride a recycled slot, so neither the plan nor the exposure grows with the
// units a write spans. Nor does a warm write build the planner's layout: the
// file keeps the one its first write built, so a one-unit write allocates 5
// objects (6 when every write built it). (Not under the race detector, where
// exited processes and wire records are poisoned instead of recycled.)
func TestSharedWriteAllocatesPerUnitOnlyItsRPC(t *testing.T) {
	r := testrig.New(6) // node 0 the MDS, 1-4 the OSTs, 5 the client
	var osts []storage.Target
	for i := 1; i <= 4; i++ {
		dev := osd.NewDevice(r.K, fmt.Sprintf("ost%d", i), osd.DefaultDiskParams())
		osts = append(osts, StartOST(r.Eps[i], dev, 30, storage.DefaultConfig()).Target())
	}
	StartMDS(r.Eps[0], osts)
	c := NewClient(r.Caller(5), r.Eps[0].Node())
	var one, narrow, wide, rpc float64
	r.Go("client", func(p *sim.Proc) {
		f, err := c.Create(p, "/shared", 0)
		if err != nil {
			t.Fatal(err)
		}
		f.SetShared(true)
		write := func(units int64) func() error {
			return func() error {
				_, err := f.Write(p, 0, netsim.SyntheticPayload(units*stripeUnit))
				return err
			}
		}
		one = mallocsPer(t, write(1))
		narrow = mallocsPer(t, write(2))
		wide = mallocsPer(t, write(8))

		// The same unit RPCs one at a time, against one standing exposure.
		ep := c.caller.Endpoint()
		bits := portals.MatchBits(ep.NextToken())
		standing := ep.Expose(clientDataPortal, bits, netsim.SyntheticPayload(stripeUnit))
		l, i := *f.striped, 0
		rpc = mallocsPer(t, func() error {
			obj := l.Objs[i%len(l.Objs)]
			i++
			_, err := portals.Invoke(c.caller, p, obj.Node, obj.Port, opOSTWrite, &ostWriteReq{
				Obj: obj.ID, Len: stripeUnit, Bits: bits, DataPortal: clientDataPortal, ClientID: c.id,
			}, pfsReqSize, pfsRespSize)
			return err
		})
		standing.Close()
	})
	r.Run(t)
	if one > 5 {
		t.Errorf("a one-unit shared write allocates %.2f objects, want at most 5", one)
	}
	if perUnit := (wide - narrow) / 6; perUnit != rpc {
		t.Errorf("a shared write allocates %.2f objects per stripe unit, its unit RPC %.2f: the plan or the exposure allocates per unit", perUnit, rpc)
	}
	t.Logf("%.0f allocations for a 1-unit shared write, %.0f for 2, %.0f for 8; %.0f per unit RPC", one, narrow, wide, rpc)
}

// mallocsPer runs op 20 times to warm up, then 200 more, and reports heap
// allocations per op over the 200.
func mallocsPer(t *testing.T, op func() error) float64 {
	t.Helper()
	const warm, n = 20, 200
	var before, after runtime.MemStats
	for i := 0; i < warm+n; i++ {
		if i == warm {
			runtime.ReadMemStats(&before)
		}
		if err := op(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n
}
