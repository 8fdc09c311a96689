package storage_test

import (
	"errors"
	"testing"

	"lwfs/internal/authz"
	"lwfs/internal/netsim"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/testrig"
)

func TestTruncate(t *testing.T) {
	r := testrig.New(3)
	srv := boot(r, 1)
	sc := storage.NewClient(r.Caller(2))
	r.Go("client", func(p *sim.Proc) {
		s := newSession(t, p, r, 2, authz.OpCreate, authz.OpWrite, authz.OpRead)
		tgt := storage.Target{Node: srv.Node(), Port: srv.RPCPort()}
		ref, _ := sc.Create(p, tgt, s.caps[authz.OpCreate], s.cid)
		if _, err := sc.Write(p, ref, s.caps[authz.OpWrite], 0, netsim.BytesPayload([]byte("keep-and-cut"))); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := sc.Truncate(p, ref, s.caps[authz.OpWrite], 4); err != nil {
			t.Fatalf("truncate: %v", err)
		}
		st, _ := sc.Stat(p, ref, s.caps[authz.OpRead])
		if st.Size != 4 {
			t.Fatalf("size after truncate = %d", st.Size)
		}
		got, err := sc.Read(p, ref, s.caps[authz.OpRead], 0, 100)
		if err != nil || string(got.Data) != "keep" {
			t.Fatalf("read after truncate: %q %v", got.Data, err)
		}
		// Truncate needs a write capability.
		if err := sc.Truncate(p, ref, s.caps[authz.OpRead], 0); !errors.Is(err, authz.ErrWrongOp) {
			t.Errorf("truncate with read cap: %v", err)
		}
		// Negative size rejected.
		if err := sc.Truncate(p, ref, s.caps[authz.OpWrite], -1); err == nil {
			t.Error("negative truncate accepted")
		}
	})
	r.Run(t)
}
