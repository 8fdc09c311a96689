package netsim

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"

	"lwfs/internal/trace"
)

// A seeded run's bytes are trace.DataFor's, wherever the run starts and
// however long it is: every start offset modulo 8, ragged lengths, cuts of
// cuts, and runs joined back together.
func TestSeededRunMatchesDataFor(t *testing.T) {
	for _, seed := range []uint64{1, 7, 0x9e3779b97f4a7c15, ^uint64(0)} {
		const total = 200
		want := trace.DataFor(seed, total)
		whole := SeededPayload(seed, total)
		if got := whole.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("seed %#x: the whole run differs from DataFor", seed)
		}
		for off := int64(0); off < 24; off++ {
			for _, n := range []int64{0, 1, 7, 8, 9, 15, 17, 64, total - 24} {
				got := whole.Slice(off, n)
				if !got.Seeded() || got.Size != n || got.Data != nil {
					t.Fatalf("seed %#x: Slice(%d, %d) = %+v", seed, off, n, got)
				}
				if b := got.Bytes(); !bytes.Equal(b, want[off:off+n]) {
					t.Fatalf("seed %#x: bytes [%d, +%d) are %x, want %x", seed, off, n, b, want[off:off+n])
				}
				if inner := got.Slice(n/3, n-n/3); !bytes.Equal(inner.Bytes(), want[off+n/3:off+n]) {
					t.Fatalf("seed %#x: a cut of [%d, +%d) differs from DataFor", seed, off, n)
				}
				joined, ok := whole.Slice(0, off).Append(got)
				if !ok || !bytes.Equal(joined.Bytes(), want[:off+n]) {
					t.Fatalf("seed %#x: [0, %d) and [%d, +%d) do not join into DataFor's prefix (ok %v)", seed, off, off, n, ok)
				}
			}
		}
		if _, ok := whole.Slice(0, 10).Append(whole.Slice(11, 5)); ok {
			t.Fatalf("seed %#x: runs with a byte between them joined", seed)
		}
		if run, ok := (Payload{}).Append(whole); !ok || run.seed != whole.seed || run.Size != whole.Size {
			t.Fatalf("seed %#x: the empty payload followed by a run is not the run", seed)
		}
	}
	if p := SeededPayload(0, 10); !p.Synthetic() {
		t.Fatalf("seed 0, DataFor's synthetic marker, gave %+v", p)
	}
	for _, q := range []Payload{SyntheticPayload(4), BytesPayload([]byte("ab"))} {
		if _, ok := (Payload{}).Append(q); ok {
			t.Fatalf("the empty payload joined %+v, which is no run", q)
		}
	}
}

// CopyTo writes a payload's bytes whatever its kind: Data and zeros past
// its end, or zeros for a synthetic payload; and no more than dst holds.
func TestCopyToFillsEveryKind(t *testing.T) {
	dst := bytes.Repeat([]byte{0xff}, 6)
	if n := (Payload{Size: 5, Data: []byte("abc")}).CopyTo(dst); n != 5 || string(dst) != "abc\x00\x00\xff" {
		t.Fatalf("short Data: %d, %q", n, dst)
	}
	if n := SyntheticPayload(4).CopyTo(dst); n != 4 || string(dst) != "\x00\x00\x00\x00\x00\xff" {
		t.Fatalf("synthetic: %d, %q", n, dst)
	}
	if n := SeededPayload(3, 100).CopyTo(dst); n != 6 || !bytes.Equal(dst, trace.DataFor(3, 6)) {
		t.Fatalf("a run longer than dst: %d, %x", n, dst)
	}
	if s := unsafe.Sizeof(Payload{}); s > 48 {
		t.Fatalf("Payload is %d bytes, want at most 48", s)
	}
}

// runJoiner interprets prog as a Joiner's size and pieces and checks what it
// joins against a flat byte model. The first byte sets Size (1 to 256);
// each piece is four bytes: kind, two of offset and one of length, the
// offset taken modulo Size and the length cut to end by Size. By kind mod 8
// a piece is copied bytes (0), the cut of seed 1's, 2's or 3's run at its
// own offset (1–3, so such cuts tiled in order continue the run), a cut of
// seed 1's run one byte further into the stream (4), size-only (5), the
// same bytes as a cut of seed 1 but copied (6), or seed 1's cut placed
// where the last piece ended (7). A size-only or empty piece has no
// content. The joined payload must hold the model's bytes and be a run
// exactly when the pieces with content, in the order they came, continue
// one run from offset 0 and cover Size; synthetic exactly when no piece
// has content.
func runJoiner(t testing.TB, prog []byte) {
	if len(prog) == 0 {
		return
	}
	size := 1 + int64(prog[0])
	prog = prog[1:]
	j := Joiner{Size: size}
	model := make([]byte, size)
	var seed uint64        // the run the pieces continue so far: its seed,
	var from, runEnd int64 // its stream offset at 0 and its end
	broken, content := false, false
	var lastEnd int64
	var pieces [][]byte // the bytes handed in, to check they are not kept
	for len(prog) >= 4 {
		kind := prog[0] % 8
		at := (int64(prog[1])<<8 | int64(prog[2])) % size
		n := min(int64(prog[3]), size-at)
		prog = prog[4:]
		if kind == 7 {
			if at = lastEnd; at == size {
				continue
			}
			n = min(n, size-at)
		}
		var piece Payload
		var s uint64 // the piece's seed, 0 when it is no run
		var f int64  // its stream offset
		switch kind {
		case 0:
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(at) + byte(i)*3 + 1
			}
			piece = BytesPayload(b)
		case 1, 2, 3:
			s, f = uint64(kind), at
		case 4:
			s, f = 1, at+1
		case 5:
			piece = SyntheticPayload(n)
		case 6:
			piece = BytesPayload(SeededPayload(1, at+n).Slice(at, n).Bytes())
		case 7:
			s, f = 1, at
		}
		if s != 0 {
			piece = SeededPayload(s, f+n).Slice(f, n)
		}
		if piece.Data != nil {
			pieces = append(pieces, piece.Data)
		}
		j.Add(at, piece)
		lastEnd = at + n
		if piece.Synthetic() || n == 0 {
			continue
		}
		piece.CopyTo(model[at:])
		content = true
		switch {
		case broken:
		case s != 0 && at == runEnd && (runEnd == 0 || s == seed && f == from+runEnd):
			if runEnd == 0 {
				seed, from = s, f
			}
			runEnd += n
		default:
			broken = true
		}
	}
	got := j.Payload()
	wantRun := !broken && runEnd == size
	if got.Size != size || got.Seeded() != wantRun || got.Synthetic() == content {
		t.Fatalf("joined %d bytes, seeded %v, synthetic %v; want %d, seeded %v, synthetic %v", got.Size, got.Seeded(), got.Synthetic(), size, wantRun, !content)
	}
	have := make([]byte, size)
	got.CopyTo(have)
	if !bytes.Equal(have, model) {
		t.Fatalf("joined bytes differ from the model:\n got %x\nwant %x", have, model)
	}
	for _, b := range pieces {
		clear(b)
	}
	got.CopyTo(have)
	if !bytes.Equal(have, model) {
		t.Fatal("the joined payload shares a piece's bytes")
	}
}

func FuzzJoiner(f *testing.F) {
	f.Add([]byte{99, 1, 0, 0, 50, 1, 0, 50, 50})               // seed 1's run in two cuts, in order: the run
	f.Add([]byte{99, 1, 0, 50, 50, 1, 0, 0, 50})               // the same cuts out of order: bytes
	f.Add([]byte{99, 1, 0, 0, 50, 2, 0, 50, 50})               // two seeds' cuts: bytes
	f.Add([]byte{99, 1, 0, 0, 50, 5, 0, 50, 50})               // a run, then a size-only piece: bytes with a zero tail
	f.Add([]byte{99, 5, 0, 0, 100})                            // size-only: synthetic
	f.Add([]byte{99, 1, 0, 0, 50, 4, 0, 50, 50})               // a run, then one cut a byte too far on: bytes
	f.Add([]byte{99, 1, 0, 0, 10, 7, 0, 0, 31, 7, 0, 0, 255})  // a run tiled by continuations: the run
	f.Add([]byte{99, 6, 0, 0, 50, 1, 0, 50, 50})               // a run's bytes copied, then its cut: bytes
	f.Add([]byte{99, 1, 0, 0, 100, 5, 0, 10, 20, 0, 0, 30, 5}) // a run, size-only over it, bytes over it
	f.Add([]byte{99, 2, 0, 0, 0, 1, 0, 0, 100})                // an empty cut of another seed, then a run: the run
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		prog := make([]byte, 1+4*(1+rng.Intn(8)))
		rng.Read(prog)
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1+4*64 {
			prog = prog[:1+4*64]
		}
		runJoiner(t, prog)
	})
}
