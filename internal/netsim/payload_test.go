package netsim

import (
	"bytes"
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
