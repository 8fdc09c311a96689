package pfs_test

import (
	"errors"
	"io/fs"
	"testing"

	"lwfs/internal/netsim"
	"lwfs/internal/sim"
)

// TestWriteRefusesBadRanges: a negative offset or size names bytes no file
// can have, so the client refuses it before any request goes out.
func TestWriteRefusesBadRanges(t *testing.T) {
	cl, f := smallCluster(2)
	c := cl.NewPFSClient(f, 0)
	cl.K.Spawn("app", func(p *sim.Proc) {
		file, err := c.Create(p, "/ranges", 0)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		for _, w := range []struct {
			name string
			off  int64
			n    int64
		}{
			{"at -4096", -4096, 8 << 10},
			{"of -4096", 0, -4096},
		} {
			if n, err := file.Write(p, w.off, netsim.SyntheticPayload(w.n)); n != 0 || !errors.Is(err, fs.ErrInvalid) {
				t.Errorf("write %s: (%d, %v), want (0, fs.ErrInvalid)", w.name, n, err)
			}
		}
	})
	run(t, cl)
	if v := cl.Metrics().Sum("pfs.*.writes_served"); v != 0 {
		t.Errorf("%v OST writes served, want 0", v)
	}
}
