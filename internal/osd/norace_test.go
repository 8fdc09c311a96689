//go:build !race

package osd

import (
	"testing"

	"lwfs/internal/netsim"
)

// A read inside one shared extent hands out a view of the kept bytes and
// allocates nothing; a read across extents still copies.
func TestSharedExtentReadAllocatesNothing(t *testing.T) {
	var b Blob
	kept := make([]byte, 64<<10)
	b.put(0, int64(len(kept)), kept, kept)
	b.Write(int64(len(kept)), netsim.BytesPayload(make([]byte, 4<<10)))
	if n := testing.AllocsPerRun(100, func() { b.Read(100, 4000) }); n != 0 {
		t.Errorf("a read inside a shared extent allocates %.0f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { b.Read(60<<10, 8<<10) }); n != 1 {
		t.Errorf("a read across two extents allocates %.0f times, want 1 (its copy)", n)
	}
}
