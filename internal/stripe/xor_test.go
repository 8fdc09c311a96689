package stripe

import (
	"bytes"
	"math/rand"
	"testing"
)

// xorIntoBytewise is the byte loop xorInto replaced, kept as its oracle.
func xorIntoBytewise(dst, src []byte) {
	for i := 0; i < len(dst) && i < len(src); i++ {
		dst[i] ^= src[i]
	}
}

// TestXORIntoMatchesByteLoop checks xorInto against the byte loop on random
// lengths up to 4 KiB+1, misaligned sub-slices, and dst both shorter and
// longer than src.
func TestXORIntoMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		buf := make([]byte, 2*(4<<10+1)+16)
		rng.Read(buf)
		dOff, sOff := rng.Intn(8), rng.Intn(8)
		dLen, sLen := rng.Intn(4<<10+2), rng.Intn(4<<10+2)
		src := buf[len(buf)/2+sOff:][:sLen]
		got, want := bytes.Clone(buf[:len(buf)/2]), bytes.Clone(buf[:len(buf)/2])
		xorInto(got[dOff:][:dLen], src)
		xorIntoBytewise(want[dOff:][:dLen], src)
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d: dst %d+%d, src %d+%d: xorInto differs from the byte loop", i, dOff, dLen, sOff, sLen)
		}
	}
	// Exact overlap: x ^ x is zero over the whole slice.
	b := []byte("parity")
	xorInto(b, b)
	if !bytes.Equal(b, make([]byte, len(b))) {
		t.Fatalf("xorInto(b, b) = %v", b)
	}
}

func BenchmarkXORInto(b *testing.B) {
	const n = 64 << 10
	dst, src := make([]byte, n), make([]byte, n)
	rand.New(rand.NewSource(1)).Read(src)
	b.SetBytes(n)
	for i := 0; i < b.N; i++ {
		xorInto(dst, src)
	}
}
