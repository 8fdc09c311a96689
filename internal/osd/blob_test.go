package osd

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"lwfs/internal/netsim"
)

// checkInvariant fails unless the extent list is sorted, non-overlapping,
// free of empty extents and inside the logical size.
func checkInvariant(t testing.TB, b *Blob) {
	t.Helper()
	var prevEnd int64
	for i, x := range b.extents {
		if len(x.data) == 0 {
			t.Fatalf("extent %d at %d is empty", i, x.off)
		}
		if x.off < prevEnd {
			t.Fatalf("extent %d at %d starts before the previous one ends at %d", i, x.off, prevEnd)
		}
		prevEnd = x.end()
	}
	if prevEnd > b.size {
		t.Fatalf("last extent ends at %d, past size %d", prevEnd, b.size)
	}
}

// blobModel is the reference a Blob is checked against: one flat byte slice
// as long as the logical size.
type blobModel struct{ data []byte }

func (m *blobModel) write(off int64, data []byte) {
	if end := off + int64(len(data)); end > int64(len(m.data)) {
		m.truncate(end)
	}
	copy(m.data[off:], data)
}

func (m *blobModel) truncate(size int64) {
	if size <= int64(len(m.data)) {
		m.data = m.data[:size]
		return
	}
	m.data = append(m.data, make([]byte, size-int64(len(m.data)))...)
}

// check compares size and full contents; a blob without extents reads back
// synthetic, which stands for zeros.
func (m *blobModel) check(t testing.TB, b *Blob, step string) {
	t.Helper()
	checkInvariant(t, b)
	if b.Size() != int64(len(m.data)) {
		t.Fatalf("%s: size %d, model %d", step, b.Size(), len(m.data))
	}
	got := b.Read(0, b.Size()+3) // past the end zero-fills
	if got.Size != b.Size()+3 {
		t.Fatalf("%s: read size %d", step, got.Size)
	}
	have := got.Data
	if have == nil {
		have = make([]byte, got.Size)
	}
	if !bytes.Equal(have[:len(m.data)], m.data) || !bytes.Equal(have[len(m.data):], []byte{0, 0, 0}) {
		t.Fatalf("%s: contents differ from the model", step)
	}
}

// frozenBuf is an array handed to a Blob as a frozen payload, and the copy
// of it that it must equal for as long as the test runs, spare capacity
// included.
type frozenBuf struct{ arr, pristine []byte }

// Write modes of runBlobOps: copied (Blob.Write), frozen (kept by
// reference), and a frozen view with spare capacity cut from a larger array.
const (
	modeCopied = iota
	modeFrozen
	modeFrozenView
)

// runBlobOps interprets prog as a sequence of operations on a Blob and its
// model, checking both after every one. Each operation is four bytes: kind,
// two bytes of offset, one of length. The kind byte's ones digit picks the
// operation and its tens digit (mod 3) how its writes store their bytes:
// copied, frozen, or a frozen view with spare capacity. After every
// operation each frozen array must equal its pristine copy. Most kinds aim
// at the extent written last, which is where the splice's edge cases are:
// adjacency, exact overlap, a write inside an extent followed by an append
// where its head ends, and a truncate into an extent.
func runBlobOps(t testing.TB, prog []byte) {
	const span = 200 << 10 // offsets stay below this; a few chunks' worth
	var b Blob
	var m blobModel
	var lastOff, lastLen int64 // the most recent real write
	var frozen []frozenBuf
	mode := modeCopied
	seq := byte(1)
	write := func(off, n int64) {
		arr := make([]byte, n)
		if mode == modeFrozenView {
			arr = make([]byte, n+16)
		}
		for i := range arr {
			arr[i] = seq
			seq = seq*5 + 1
		}
		data := arr
		switch mode {
		case modeCopied:
			b.Write(off, netsim.BytesPayload(data))
		case modeFrozenView:
			data = arr[8 : 8+n] // 8 bytes of spare capacity behind it
			fallthrough
		case modeFrozen:
			frozen = append(frozen, frozenBuf{arr, slices.Clone(arr)})
			b.put(off, n, data, data)
		}
		m.write(off, data)
		if n > 0 {
			lastOff, lastLen = off, n
		}
	}
	var views [8]frozenBuf // the latest frozen reads, and what they showed
	nviews := 0
	check := func(step string) {
		t.Helper()
		m.check(t, &b, step)
		for i, f := range frozen {
			if !bytes.Equal(f.arr[:cap(f.arr)], f.pristine) {
				t.Fatalf("%s: frozen array %d was modified", step, i)
			}
		}
		for _, v := range views {
			if !bytes.Equal(v.arr, v.pristine) {
				t.Fatalf("%s: the bytes a read returned changed", step)
			}
		}
		if v := b.Read(lastOff, lastLen); v.Frozen {
			if cap(v.Data) != len(v.Data) {
				t.Fatalf("%s: a frozen read has spare capacity", step)
			}
			views[nviews%len(views)] = frozenBuf{v.Data, slices.Clone(v.Data)}
			nviews++
		}
		// An array no shared extent points into any more is out of the
		// blob's reach and cannot change: stop re-reading it every op.
		frozen = slices.DeleteFunc(frozen, func(f frozenBuf) bool { return !b.holds(f.arr) })
	}
	truncate := func(size int64) {
		b.Truncate(size)
		m.truncate(size)
	}
	for step := 0; len(prog) >= 4; step++ {
		kind, off, n := prog[0]%10, int64(prog[1])<<8|int64(prog[2]), int64(prog[3])
		mode = int(prog[0]/10) % 3
		prog = prog[4:]
		off = off * span / (1 << 16)
		switch kind {
		case 0: // anywhere, small
			write(off, n)
		case 1: // anywhere, up to 76 KiB: crosses several extents and a chunk
			write(off, n*300)
		case 2: // exactly where the last write ended
			write(lastOff+lastLen, n+1)
		case 3: // exactly over the last write
			write(lastOff, lastLen)
		case 4: // inside the last write, then an append where the head ends
			if lastLen < 3 {
				continue
			}
			head := 1 + n%(lastLen-2)
			write(lastOff+head, 1)
			check(fmt.Sprintf("op %d (inner write)", step))
			// lastOff is now the inner write, where the head ends. Half the
			// time cut the blob there first, so the head is the last extent
			// and the append grows it.
			if n%2 == 0 {
				truncate(lastOff)
			}
			write(lastOff, n+1)
		case 5: // straddling the start of the last write
			write(max(0, lastOff-n/2), n+1)
		case 6: // straddling the end of the last write
			write(lastOff+lastLen-min(lastLen, n/2), n+1)
		case 7: // truncate into the last write
			truncate(lastOff + n%(lastLen+1))
		case 8: // truncate anywhere, extending too
			truncate(off)
		case 9: // synthetic: only the size moves
			b.Write(off, netsim.SyntheticPayload(n))
			if end := off + n; end > int64(len(m.data)) {
				m.truncate(end)
			}
		}
		check(fmt.Sprintf("op %d (kind %d)", step, kind))
	}
}

func TestBlobOpMixMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 4*100)
		rng.Read(prog)
		runBlobOps(t, prog)
	}
}

func FuzzBlob(f *testing.F) {
	f.Add([]byte{0, 0, 0, 200, 4, 0, 0, 50, 2, 0, 0, 9})               // write, inner write + append at the head's end, adjacent
	f.Add([]byte{1, 0, 0, 255, 2, 0, 0, 255, 7, 0, 0, 100})            // large, adjacent, truncate into it
	f.Add([]byte{0, 10, 0, 100, 5, 0, 0, 80, 6, 0, 0, 80, 3, 0, 0, 0}) // straddles and an exact overwrite
	f.Add([]byte{10, 0, 0, 200, 4, 0, 0, 50, 2, 0, 0, 9})              // frozen write, copied inner write, truncate to its head, append there
	f.Add([]byte{20, 0, 0, 200, 14, 0, 0, 51, 22, 0, 0, 9})            // frozen view, frozen inner write, append where the head ends
	f.Add([]byte{10, 0, 0, 10, 12, 0, 0, 10, 2, 0, 0, 9, 7, 0, 0, 5})  // small frozen records, a copied one after, truncate into them
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4*400 {
			prog = prog[:4*400]
		}
		runBlobOps(t, prog)
	})
}

// A read inside one shared extent returns a frozen view of it, capacity
// clipped, and nothing done to the blob afterwards changes the bytes the
// view shows: not an overwrite of the range, copied or frozen, not a
// truncate into it, not an append where the truncate cut. Any other read
// is a private copy.
func TestSharedExtentReadIsAFrozenView(t *testing.T) {
	kept := make([]byte, 8<<10)
	for i := range kept {
		kept[i] = byte(i*11 + 1)
	}
	var b Blob
	b.put(1000, int64(len(kept)), kept, kept)
	b.Write(1000+int64(len(kept)), netsim.BytesPayload(make([]byte, 100)))
	view := b.Read(2000, 3000)
	if !view.Frozen || &view.Data[0] != &kept[1000] || cap(view.Data) != 3000 {
		t.Fatalf("an in-extent read of shared bytes is not a clipped frozen view (frozen %v, cap %d)", view.Frozen, cap(view.Data))
	}
	want := slices.Clone(view.Data)
	for _, x := range []struct {
		what string
		read func() netsim.Payload
	}{
		{"straddling the shared extent's start", func() netsim.Payload { return b.Read(900, 200) }},
		{"straddling its end", func() netsim.Payload { return b.Read(9000, 300) }},
		{"the private extent", func() netsim.Payload { return b.Read(9200, 50) }},
	} {
		if got := x.read(); got.Frozen {
			t.Errorf("a read %s came back frozen", x.what)
		}
	}
	steps := []struct {
		what string
		do   func()
	}{
		{"a copied overwrite", func() { b.Write(2000, netsim.BytesPayload(bytes.Repeat([]byte{0xee}, 3000))) }},
		{"a frozen overwrite", func() { fz := bytes.Repeat([]byte{0xdd}, 3000); b.put(2000, 3000, fz, fz) }},
		{"a truncate into the range", func() { b.Truncate(3500) }},
		{"an append where the truncate cut", func() { b.Write(3500, netsim.BytesPayload(bytes.Repeat([]byte{0xcc}, 2000))) }},
		{"a truncate to nothing", func() { b.Truncate(0) }},
	}
	for _, s := range steps {
		s.do()
		if !bytes.Equal(view.Data, want) {
			t.Fatalf("%s changed the bytes a read had returned", s.what)
		}
	}
}

// holds reports whether a shared extent of b points into arr's backing
// array.
func (b *Blob) holds(arr []byte) bool {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(arr)))
	hi := lo + uintptr(cap(arr))
	for _, x := range b.extents {
		if p := uintptr(unsafe.Pointer(unsafe.SliceData(x.data))); x.shared && lo <= p && p < hi {
			return true
		}
	}
	return false
}

// One frozen payload kept by two blobs — the two copies of a replica — is
// stored once: rewriting, truncating and appending to one blob changes
// neither the other blob nor the buffer.
func TestFrozenPayloadSharedByTwoBlobs(t *testing.T) {
	buf := make([]byte, 4<<10)
	for i := range buf {
		buf[i] = byte(i*7 + 3)
	}
	pristine := slices.Clone(buf)
	var a, b Blob
	var ma, mb blobModel
	for _, x := range []struct {
		blob  *Blob
		model *blobModel
	}{{&a, &ma}, {&b, &mb}} {
		x.blob.put(100, int64(len(buf)), buf, buf)
		x.model.write(100, buf)
		if &x.blob.extents[0].data[0] != &buf[0] {
			t.Fatal("a frozen payload was copied, not kept")
		}
	}

	inner := bytes.Repeat([]byte{0xee}, 64)
	a.Write(1000, netsim.BytesPayload(inner)) // inside the shared extent
	ma.write(1000, inner)
	ma.check(t, &a, "inner write")
	a.Truncate(2000)
	ma.truncate(2000)
	ma.check(t, &a, "truncate")
	tail := bytes.Repeat([]byte{0xdd}, 128)
	a.Write(2000, netsim.BytesPayload(tail)) // an append where the shared head ends
	ma.write(2000, tail)
	ma.check(t, &a, "append")

	if !bytes.Equal(buf[:cap(buf)], pristine) {
		t.Fatal("the frozen buffer changed")
	}
	mb.check(t, &b, "the other blob")
}

// Sequential small appends — a journal — coalesce into chunk-sized extents.
func TestBlobSmallAppendsCoalesce(t *testing.T) {
	const recs, recLen = 10_000, 128
	var b Blob
	var m blobModel
	rec := make([]byte, recLen)
	for i := 0; i < recs; i++ {
		rec[0], rec[recLen-1] = byte(i), byte(i>>8)
		b.Write(int64(i)*recLen, netsim.BytesPayload(rec))
		m.write(int64(i)*recLen, rec)
	}
	m.check(t, &b, "after the appends")
	if want := recs * recLen / chunkSize; len(b.extents) > want+1 {
		t.Fatalf("%d appends of %d B left %d extents, want at most %d", recs, recLen, len(b.extents), want+1)
	}
}

// A payload larger than a record — application data — stays an extent of its
// own: it is copied once, never again to grow a chunk.
func TestBlobLargeAppendsStaySeparate(t *testing.T) {
	var b Blob
	big := make([]byte, recordSize+1)
	for i := int64(0); i < 4; i++ {
		b.Write(i*int64(len(big)), netsim.BytesPayload(big))
	}
	if len(b.extents) != 4 {
		t.Fatalf("%d extents, want 4", len(b.extents))
	}
	checkInvariant(t, &b)
}

// The cost of a tail append must not depend on how many extents the blob
// already holds.
func TestBlobTailAppendAllocsIndependentOfExtentCount(t *testing.T) {
	data := netsim.BytesPayload(make([]byte, 128))
	allocs := func(n int) float64 {
		b := benchBlob(n)
		if len(b.extents) != n {
			t.Fatalf("built %d extents, want %d", len(b.extents), n)
		}
		end := int64(n) * benchStride
		return testing.AllocsPerRun(200, func() {
			b.Write(end, data)
			b.Truncate(end)
		})
	}
	small, large := allocs(100), allocs(10_000)
	if small != large || small > 1 {
		t.Fatalf("tail append allocates %v times at 100 extents and %v at 10 000; want the same, at most 1", small, large)
	}
}

// Appending a record-sized payload to a log allocates nothing once the
// chunk has grown, and overwriting in place never does.
func TestBlobSteadyStateAllocs(t *testing.T) {
	var b Blob
	data := netsim.BytesPayload(make([]byte, 128))
	for i := int64(0); i < 300; i++ {
		b.Write(i*128, data)
	}
	if n := testing.AllocsPerRun(100, func() {
		b.Write(300*128, data)
		b.Truncate(300 * 128)
	}); n != 0 {
		t.Fatalf("append into a chunk with room allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { b.Write(150*128+7, data) }); n != 0 {
		t.Fatalf("overwrite in place allocates %v times", n)
	}
}

// benchBlob returns a blob of n separate 128 B extents, benchStride apart:
// the one-byte holes keep them from coalescing.
func benchBlob(n int) *Blob {
	b := new(Blob)
	data := netsim.BytesPayload(make([]byte, 128))
	for i := 0; i < n; i++ {
		b.Write(int64(i)*benchStride, data)
	}
	return b
}

const benchStride = 129

// BenchmarkBlobAppend appends one 128 B extent past the end of a blob that
// already holds N, then truncates it away again.
func BenchmarkBlobAppend(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
	}{{"1", 1}, {"100", 100}, {"10k", 10_000}} {
		b.Run(c.name, func(b *testing.B) {
			blob := benchBlob(c.n)
			data := netsim.BytesPayload(make([]byte, 128))
			end := int64(c.n) * benchStride
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blob.Write(end, data)
				blob.Truncate(end)
			}
		})
	}
}

// BenchmarkBlobOverwrite rewrites a range that straddles two of 10 000
// extents, alternating between two offsets so every write splices.
func BenchmarkBlobOverwrite(b *testing.B) {
	blob := benchBlob(10_000)
	data := netsim.BytesPayload(make([]byte, 128))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob.Write(5000*benchStride+int64(i%2)*64, data)
	}
}

var readSink netsim.Payload

// BenchmarkBlobRead reads 128 B from the middle of 10 000 extents.
func BenchmarkBlobRead(b *testing.B) {
	blob := benchBlob(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		readSink = blob.Read(5000*benchStride, 128)
	}
}
