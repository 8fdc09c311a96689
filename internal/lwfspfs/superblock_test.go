package lwfspfs

import (
	"bytes"
	"testing"

	"lwfs/internal/stripe"
)

// The superblock decoder accepts what Format writes and nothing else: no
// layout Format could not have written, no non-canonical spelling of one.
func TestParseSuperblockRejectsNonCanonical(t *testing.T) {
	for _, bad := range []string{
		"lwfspfs v1\ncontainer 3\nstripeunit -1\nstripes 4\n",
		"lwfspfs v1\ncontainer 3\nstripeunit 0\nstripes 4\n",
		"lwfspfs v1\ncontainer 3\nstripeunit 4096\nstripes 0\n",
		"lwfspfs v1\ncontainer 3\nstripeunit 4096\nstripes 4\nscheme replica 1\n",
		"lwfspfs v1\ncontainer 3\nstripeunit 4096\nstripes 4\nscheme replica 3\n",
		"lwfspfs v1\ncontainer 3\nstripeunit 4096\nstripes 4\nmeta 1\n",
		"lwfspfs v1\ncontainer 3\nstripeunit 4096\nstripes 4\nmeta 0\n",
		"lwfspfs v1\ncontainer 3\nstripeunit +4096\nstripes 4\n",
		"lwfspfs v1\ncontainer 3\nstripeunit 4096\nstripes 4",
		"lwfspfs v1\ncontainer 3\nstripeunit 4096\nstripes 4\n\n",
		"lwfspfs v1\ncontainer 3\nstripeunit 4096\nstripes 4\nmeta 2\nscheme parity\n",
		"lwfspfs v1\ncontainer 3\nstripeunit 4096\nstripes 4\nscheme parity\nscheme parity\n",
	} {
		if _, _, ok := parseSuperblock([]byte(bad)); ok {
			t.Errorf("accepted %q", bad)
		}
	}
}

// FuzzParseSuperblock: parsing never panics; whatever it accepts is a layout
// Format could have written, in the bytes encodeSuperblock writes for it.
func FuzzParseSuperblock(f *testing.F) {
	for _, o := range []Options{
		{StripeUnit: 1 << 20, Stripes: 8},
		{StripeUnit: 64 << 10, Stripes: 2, Scheme: stripe.Replica, MetaCopies: 2},
		{StripeUnit: 4096, Stripes: 3, Scheme: stripe.Parity, MetaCopies: 3},
	} {
		f.Add(encodeSuperblock(7, o))
	}
	f.Add([]byte("lwfspfs v1\ncontainer 3\nstripeunit -1\nstripes 4\n"))
	f.Add([]byte("lwfspfs v1\ncontainer 3\nstripeunit 4096\nstripes 4\nmeta 1\n"))
	f.Add([]byte("lwfspfs v1\ncontainer 3\nstripeunit 4096\nstripes 4\nscheme replica 3\n"))
	f.Add([]byte("lwfspfs v1\ncontainer 3\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cid, opts, ok := parseSuperblock(data)
		if !ok {
			return
		}
		if opts.StripeUnit <= 0 || opts.Stripes < 1 || opts.withDefaults(opts.Stripes).MetaCopies < 1 {
			t.Fatalf("accepted a layout Format never writes: %+v", opts)
		}
		if enc := encodeSuperblock(cid, opts); !bytes.Equal(enc, data) {
			t.Fatalf("accepted %q, which re-encodes as %q", data, enc)
		}
	})
}
