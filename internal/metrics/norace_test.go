//go:build !race

package metrics

import (
	"fmt"
	"testing"
)

// Registering counters under one scope allocates, per counter, nothing but
// its share of a record block: k counters cost their ceil(k/recordBlock)
// blocks and the scope's one map entry — no name, entry or map slot of
// their own. (Not under the race detector, like
// the other allocation guards.)
func TestRegisteringUnderAScopeAllocatesOnlyBlocks(t *testing.T) {
	for _, k := range []int{recordBlock, 10 * recordBlock} {
		leaves := make([]string, k)
		for i := range leaves {
			leaves[i] = fmt.Sprintf("m%d", i)
		}
		// Each run registers into a fresh registry: the registry, its map
		// and the nested scope's name are 3 allocations more.
		got := testing.AllocsPerRun(5, func() {
			sc := NewRegistry(nil).Scope("svc").Scope("node0")
			for _, leaf := range leaves {
				sc.Counter(leaf)
			}
		}) - 3
		blocks := (k + recordBlock - 1) / recordBlock
		if limit := float64(blocks + 1); got > limit {
			t.Errorf("registering %d counters allocated %.0f times, want at most %.0f (%d blocks)", k, got, limit, blocks)
		}
	}
}
