package checkpoint

import (
	"bytes"
	"testing"

	"lwfs/internal/storage"
)

// nonCanonicalManifests parse field by field but are not EncodeMetadata's
// output. The first names rank 0 twice and rank 1 never: accepting it would
// leave Refs[1] zero for Restore to Stat.
var nonCanonicalManifests = []string{
	"lwfs-checkpoint v1 ranks=2 bytes=10\n0 1 2 3\n0 4 5 6\n",
	"lwfs-checkpoint v1 ranks=2 bytes=10\n1 4 5 6\n0 1 2 3\n",
	"lwfs-checkpoint v1 ranks=1 bytes=-5\n0 1 2 3\n",
	"lwfs-checkpoint v1 ranks=1 bytes=10\n0 1 -2 3\n",
	"lwfs-checkpoint v1 ranks=1 bytes=10\n0 -1 2 3\n",
	"lwfs-checkpoint v1 ranks=1 bytes=10\n0 1 2 3 trailing\n",
	"lwfs-checkpoint v1 ranks=1 bytes=10 trailing\n0 1 2 3\n",
	"lwfs-checkpoint v1 ranks=1 bytes=+10\n0 1 2 3\n",
	"lwfs-checkpoint v1 ranks=1 bytes=10\n0  1 2 3\n",
	"lwfs-checkpoint v1 ranks=1 bytes=10\n0 1 2 3",
	"  lwfs-checkpoint v1 ranks=1 bytes=10\n0 1 2 3\n\n",
}

func TestDecodeMetadataRejectsNonCanonical(t *testing.T) {
	for _, bad := range nonCanonicalManifests {
		if m, err := decodeMetadata([]byte(bad)); err == nil {
			t.Errorf("decodeMetadata(%q) accepted %+v", bad, m)
		}
	}
}

// FuzzDecodeMetadata: decoding never panics, and whatever it accepts names
// each rank once with no negative size, node or port, and encodes back to
// the same bytes.
func FuzzDecodeMetadata(f *testing.F) {
	for _, refs := range [][]storage.ObjRef{
		nil,
		{{Node: 3, Port: 20, ID: 7}},
		{{Node: 1, Port: 2, ID: 3}, {Node: 4, Port: 5, ID: 1 << 63}, {Node: 0, Port: 0, ID: 0}},
	} {
		f.Add(EncodeMetadata(refs, 4<<20))
	}
	for _, bad := range nonCanonicalManifests {
		f.Add([]byte(bad))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeMetadata(b)
		if err != nil {
			return
		}
		if m.Ranks != len(m.Refs) || m.BytesPerProc < 0 {
			t.Fatalf("accepted %d ranks with %d refs, %d bytes each", m.Ranks, len(m.Refs), m.BytesPerProc)
		}
		for rank, r := range m.Refs {
			if r.Node < 0 || r.Port < 0 {
				t.Fatalf("accepted rank %d ref %+v", rank, r)
			}
		}
		if got := EncodeMetadata(m.Refs, m.BytesPerProc); !bytes.Equal(got, b) {
			t.Fatalf("%+v re-encodes as\n%q, decoded from\n%q", m, got, b)
		}
	})
}
