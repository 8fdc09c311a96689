package pfs

import (
	"lwfs/internal/sim"
)

// LayoutForTest returns the file's striping, with the size known at open.
func (f *File) LayoutForTest() Layout { return f.layout }

// ReadBackForTest reassembles [off, off+n) of f straight from the OSTs'
// devices, one stripe unit at a time by the round-robin rule — a mapping
// written independently of the client's, so what Write scattered is checked
// against it. Holes, and objects no write ever reached, read as zeros.
func ReadBackForTest(p *sim.Proc, f *File, osts []*OST, off, n int64) []byte {
	unit, m := f.layout.StripeUnit, int64(len(f.layout.OSTs))
	out := make([]byte, n)
	for cur := off; cur < off+n; {
		w := cur / unit
		hi := min((w+1)*unit, off+n)
		i := int(w % m)
		for _, o := range osts {
			if o.Target() != f.layout.OSTs[i] {
				continue
			}
			objOff := (w/m)*unit + cur%unit
			if got, err := o.dev.Read(p, f.layout.ObjectID(i), objOff, hi-cur); err == nil {
				copy(out[cur-off:hi-off], got.Data)
			}
		}
		cur = hi
	}
	return out
}
