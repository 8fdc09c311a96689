package lwfspfs

import "lwfs/internal/stripe"

// PathHash is the hash Create and fill place a file's objects by: object idx
// of the file at path starts its walk at Server(PathHash(path)+idx).
var PathHash = pathHash

// SetLayoutForTest swaps f's in-memory layout and marks it dirty so the
// next Close rewrites the metadata object. Regression tests use it to
// force a metadata rewrite whose encoding is shorter than the one on disk
// (normally only Rebuild can shrink the encoding, and only when the
// replacement refs happen to have fewer digits).
func (f *File) SetLayoutForTest(l stripe.Layout) {
	f.l = l
	f.dirty = true
}

// FlushBufferForTest returns the encoding buffer f keeps for its next
// metadata flush, nil when it keeps none.
func (f *File) FlushBufferForTest() []byte { return f.enc }
