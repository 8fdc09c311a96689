//go:build !race

package osd

import (
	"testing"

	"lwfs/internal/netsim"
)

// A read inside one seeded extent is a cut of its run and allocates
// nothing; a read across extents still copies.
func TestSeededExtentReadAllocatesNothing(t *testing.T) {
	var b Blob
	b.Write(0, netsim.SeededPayload(7, 64<<10))
	b.Write(64<<10, netsim.BytesPayload(make([]byte, 4<<10)))
	if n := testing.AllocsPerRun(100, func() { b.Read(100, 4000) }); n != 0 {
		t.Errorf("a read inside a seeded extent allocates %.0f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { b.Read(60<<10, 8<<10) }); n != 1 {
		t.Errorf("a read across two extents allocates %.0f times, want 1 (its copy)", n)
	}
}
