package osd

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lwfs/internal/netsim"
	"lwfs/internal/trace"
)

// checkInvariant fails unless the extent list is sorted, non-overlapping,
// free of empty extents and inside the logical size, and every extent holds
// exactly its bytes or a seeded run.
func checkInvariant(t testing.TB, b *Blob) {
	t.Helper()
	var prevEnd int64
	for i, x := range b.extents {
		if x.pl.Size <= 0 {
			t.Fatalf("extent %d at %d is empty", i, x.off)
		}
		if x.pl.Seeded() != (x.pl.Data == nil) || (x.pl.Data != nil && int64(len(x.pl.Data)) != x.pl.Size) {
			t.Fatalf("extent %d at %d holds %d bytes for %d (seeded %v)", i, x.off, len(x.pl.Data), x.pl.Size, x.pl.Seeded())
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
	have := make([]byte, got.Size)
	got.CopyTo(have)
	if !bytes.Equal(have[:len(m.data)], m.data) || !bytes.Equal(have[len(m.data):], []byte{0, 0, 0}) {
		t.Fatalf("%s: contents differ from the model", step)
	}
}

// Write modes of runBlobOps: copied real bytes, a seeded run from the start
// of a fresh seed's stream, and a seeded run cut from further into one.
const (
	modeCopied = iota
	modeSeeded
	modeSeededCut
)

// runBlobOps interprets prog as a sequence of operations on a Blob and its
// model, checking both after every one. Each operation is four bytes: kind,
// two bytes of offset, one of length. The kind byte's ones digit picks the
// operation and its tens digit (mod 3) how its writes carry their bytes:
// copied, or a seeded run starting at its stream's start or inside it. A
// seeded write where the last seeded write ended continues that write's run,
// so the blob may join the two. The model holds trace.DataFor's bytes. Most
// kinds aim at the extent written last, which is where the splice's edge
// cases are: adjacency, exact overlap, a write inside an extent followed by
// an append where its head ends, and a truncate into an extent. After every
// operation a read of the last write's range must show the model's bytes, as
// a seeded run when it lies inside one seeded extent, and the bytes earlier
// reads returned must not have changed.
func runBlobOps(t testing.TB, prog []byte) {
	const span = 200 << 10 // offsets stay below this; a few chunks' worth
	var b Blob
	var m blobModel
	var lastOff, lastLen int64 // the most recent real or seeded write
	var run struct {           // the most recent seeded write
		seed     uint64
		from, at int64 // its stream offset, and where it lies in the blob
		n        int64
	}
	mode := modeCopied
	seq := byte(1)
	write := func(off, n int64) {
		data := make([]byte, n)
		switch mode {
		case modeCopied:
			for i := range data {
				data[i] = seq
				seq = seq*5 + 1
			}
			b.Write(off, netsim.BytesPayload(data))
		default:
			if off != run.at+run.n || run.seed == 0 {
				run.seed, run.from = uint64(seq)+1, 0
				seq = seq*5 + 1
				if mode == modeSeededCut {
					run.from = 1 + n%13
				}
			} else {
				run.from += run.n
			}
			run.at, run.n = off, n
			data = trace.DataFor(run.seed, run.from+n)[run.from:]
			b.Write(off, netsim.SeededPayload(run.seed, run.from+n).Slice(run.from, n))
		}
		m.write(off, data)
		if n > 0 {
			lastOff, lastLen = off, n
		}
	}
	var views [8]struct{ got, pristine []byte } // the latest reads, and what they showed
	nviews := 0
	check := func(step string) {
		t.Helper()
		m.check(t, &b, step)
		for _, v := range views {
			if !bytes.Equal(v.got, v.pristine) {
				t.Fatalf("%s: the bytes a read returned changed", step)
			}
		}
		if lastOff+lastLen > b.Size() {
			return
		}
		v := b.Read(lastOff, lastLen)
		i := b.firstEndingAfter(lastOff)
		if inRun := i < len(b.extents) && b.extents[i].pl.Seeded() && b.extents[i].off <= lastOff && lastOff+lastLen <= b.extents[i].end(); lastLen > 0 && v.Seeded() != inRun {
			t.Fatalf("%s: a read inside one seeded extent is seeded %v, want %v", step, v.Seeded(), inRun)
		}
		got := make([]byte, lastLen)
		v.CopyTo(got)
		if !bytes.Equal(got, m.data[lastOff:lastOff+lastLen]) {
			t.Fatalf("%s: a read of the last write's range differs from the model (seeded %v)", step, v.Seeded())
		}
		if v.Data != nil {
			views[nviews%len(views)].got, views[nviews%len(views)].pristine = v.Data, slices.Clone(v.Data)
			nviews++
		}
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
	f.Add([]byte{0, 0, 0, 200, 4, 0, 0, 50, 2, 0, 0, 9})                // write, inner write + append at the head's end, adjacent
	f.Add([]byte{1, 0, 0, 255, 2, 0, 0, 255, 7, 0, 0, 100})             // large, adjacent, truncate into it
	f.Add([]byte{0, 10, 0, 100, 5, 0, 0, 80, 6, 0, 0, 80, 3, 0, 0, 0})  // straddles and an exact overwrite
	f.Add([]byte{10, 0, 0, 200, 4, 0, 0, 50, 2, 0, 0, 9})               // seeded write, copied inner write, truncate to its head, append there
	f.Add([]byte{20, 0, 0, 200, 14, 0, 0, 51, 22, 0, 0, 9})             // cut run, seeded inner write, a run continued where it ends
	f.Add([]byte{11, 0, 0, 200, 12, 0, 0, 200, 17, 0, 0, 99})           // a run, its continuation joined on, truncate into them
	f.Add([]byte{1, 0, 0, 200, 15, 0, 0, 60, 16, 0, 0, 60, 3, 0, 0, 0}) // copied bytes, seeded writes straddling both ends, an exact overwrite
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4*400 {
			prog = prog[:4*400]
		}
		runBlobOps(t, prog)
	})
}

// A read inside one seeded extent is a cut of its run, without bytes, and
// so is a read inside two extents the blob joined because the second
// continues the first's run. A read across a seeded extent and real bytes,
// or two unrelated runs, generates and copies.
func TestSeededExtentReadIsASeededView(t *testing.T) {
	const seed, n = 42, 8 << 10
	want := trace.DataFor(seed, 2*n)
	run := netsim.SeededPayload(seed, 2*n)
	var b Blob
	b.Write(1000, run.Slice(0, n))
	b.Write(1000+n, run.Slice(n, n)) // continues the run: joined
	b.Write(1000+2*n, netsim.BytesPayload(make([]byte, 100)))
	b.Write(1000+3*n, netsim.SeededPayload(seed+1, 100))
	if len(b.extents) != 3 {
		t.Fatalf("%d extents, want the joined run, the bytes and the other run", len(b.extents))
	}
	for _, r := range []struct {
		off, n int64
		seeded bool
	}{
		{2000, 3000, true},
		{1000 + n - 5, 10, true},
		{1003, 2 * n, false},
		{900, 200, false},
		{1000 + 2*n, 100, false},
		{1000 + 3*n, 100, true},
	} {
		got := b.Read(r.off, r.n)
		if got.Seeded() != r.seeded || (r.seeded && got.Data != nil) {
			t.Errorf("read [%d, +%d): seeded %v with %d bytes, want seeded %v", r.off, r.n, got.Seeded(), len(got.Data), r.seeded)
		}
		if hi := min(r.off+r.n, 1000+2*n); r.off >= 1000 && r.off < hi {
			have := make([]byte, r.n)
			got.CopyTo(have)
			if !bytes.Equal(have[:hi-r.off], want[r.off-1000:hi-1000]) {
				t.Errorf("read [%d, +%d) differs from the seed's bytes", r.off, r.n)
			}
		}
	}
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
