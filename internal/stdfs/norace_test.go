//go:build !race

package stdfs_test

import (
	"runtime"
	"testing"

	"lwfs/internal/cluster"
	"lwfs/internal/sim"
	"lwfs/internal/stdfs"
)

// A seeded write travels and is stored as its seed: one 1 MiB WriteSeeded
// on a warm 2-copy replica mount allocates less than a sixteenth of what it
// writes. Expanding the bytes anywhere on the way would cost at least 1 MiB.
func TestSeededWriteAllocatesNoBytes(t *testing.T) {
	withMount(t, replicaOpts, func(p *sim.Proc, cl *cluster.Cluster, lw *cluster.LWFS, x *stdfs.FS) {
		const n = 1 << 20
		f, err := x.Create("alloc.dat")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ { // warm the path
			if _, err := f.WriteSeeded(int64(i)*n, n, uint64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := f.WriteSeeded(4*n, n, 5); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		grew := after.TotalAlloc - before.TotalAlloc
		t.Logf("a 1 MiB seeded write allocated %d bytes", grew)
		if grew >= n/16 {
			t.Fatalf("a 1 MiB seeded write allocated %d bytes, want under %d", grew, n/16)
		}
	})
}

// Seeded writes on a 2-copy mount allocate their bytes at most once, over
// many writes as well as one: sixteen 256 KiB writes cost the host no more
// than 1.25 bytes per byte written (three when each copy stored private
// bytes). TestSeededWriteAllocatesNoBytes holds one write to a far tighter
// bound.
func TestSeededWriteAllocatesItsBytesOnce(t *testing.T) {
	withMount(t, replicaOpts, func(p *sim.Proc, cl *cluster.Cluster, lw *cluster.LWFS, x *stdfs.FS) {
		const n, writes = 256 << 10, 16
		f, err := x.Create("alloc.dat")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteSeeded(0, n, 1); err != nil { // warm the path
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < writes; i++ {
			if _, err := f.WriteSeeded(int64(i)*n, n, uint64(i+2)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perByte := float64(after.TotalAlloc-before.TotalAlloc) / (writes * n)
		t.Logf("%.3f bytes allocated per seeded byte written", perByte)
		if perByte > 1.25 {
			t.Fatalf("%.2f bytes allocated per seeded byte written, want at most 1.25", perByte)
		}
	})
}

// Seeded writes keep no buffer alive beyond what the file holds: 1 024
// distinct seeds written over 16 offsets leave 16 of them in the file, and
// after a collection the heap holds little more than those (anything that
// kept every write's bytes would hold 64 MiB).
func TestSeededMemoPinsNothing(t *testing.T) {
	withMount(t, replicaOpts, func(p *sim.Proc, cl *cluster.Cluster, lw *cluster.LWFS, x *stdfs.FS) {
		const n, writes = 64 << 10, 1024
		f, err := x.Create("churn.dat")
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < writes; i++ {
			if _, err := f.WriteSeeded(int64(i%16)*n, n, uint64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		grew := int64(after.HeapInuse) - int64(before.HeapInuse)
		t.Logf("heap in use grew by %.2f MiB", float64(grew)/(1<<20))
		if grew >= 16<<20 {
			t.Errorf("heap in use grew by %.1f MiB over %d seeded writes, want under 16", float64(grew)/(1<<20), writes)
		}
	})
}
