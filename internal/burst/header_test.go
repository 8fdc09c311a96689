package burst

import (
	"bytes"
	"testing"

	"lwfs/internal/authz"
	"lwfs/internal/storage"
)

// FuzzJournalHeader: decoding never panics, rejects an unknown kind and a
// negative length (the walk steps by it), and whatever it accepts encodes
// back to the same bytes.
func FuzzJournalHeader(f *testing.F) {
	c := authz.Capability{Container: 3, Op: authz.OpWrite, ID: 99, Expires: 1 << 40}
	for i := range c.Sig {
		c.Sig[i] = byte(i*37 + 1)
	}
	ref := storage.ObjRef{Node: 7, Port: 20, ID: 1 << 62}
	for _, r := range []jrec{
		{seq: 1, kind: jKindStage, epoch: 2, ref: ref, off: 4 << 20, length: 1 << 20, real: true, cap: c},
		{seq: 2, kind: jKindStage, ref: ref, length: 0, cap: c},
		{seq: 3, kind: jKindDurable, epoch: 1, ref: ref},
		{seq: 1, kind: jKindDrained, epoch: 1},
	} {
		f.Add(r.header().Data)
	}
	f.Add(retiredKindHeader())                     // the first kind above the last one
	f.Add(make([]byte, jHeaderSize))               // a zeroed region: no record
	f.Add(bytes.Repeat([]byte{0xff}, jHeaderSize)) // unknown kind, negative length
	f.Add([]byte("bj1 seq=1 kind=stage epoch=0\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := decodeHeader(b)
		if err != nil {
			return
		}
		if r.kind < jKindStage || r.kind > jKindDrained || r.length < 0 {
			t.Fatalf("accepted kind %d, length %d", r.kind, r.length)
		}
		if got := r.header().Data; !bytes.Equal(got, b) {
			t.Fatalf("%+v re-encodes as\n%x, decoded from\n%x", r, got, b)
		}
	})
}

// retiredKindHeader is a header of kind 4, which once marked a journal's
// records as taken over by a peer buffer: seq 9, the ref naming node 4's
// port 40, every other field zero.
func retiredKindHeader() []byte {
	return jrec{seq: 9, kind: jKindDrained + 1, ref: storage.ObjRef{Node: 4, Port: 40}}.header().Data
}

// TestDecodeHeaderRefusesRetiredKind: no record kind follows drained, so a
// kind-4 header is a bad journal header, not a record the walk skips.
func TestDecodeHeaderRefusesRetiredKind(t *testing.T) {
	b := retiredKindHeader()
	if b[0] != 4 {
		t.Fatalf("kind byte %d, want 4", b[0])
	}
	if r, err := decodeHeader(b); err == nil {
		t.Fatalf("decoded %+v from a kind-4 header, want it refused", r)
	}
}
