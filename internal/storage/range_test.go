package storage_test

import (
	"errors"
	"io/fs"
	"math"
	"testing"

	"lwfs/internal/authz"
	"lwfs/internal/netsim"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/testrig"
)

// TestBadRangesAreRefused: a write, read, copy or filter naming a negative
// offset or length, or a range ending past math.MaxInt64, and a truncate to
// a negative size, are answered fs.ErrInvalid before the capability is
// looked at — with no capability at all as with a valid one — and the
// server keeps serving. Nothing reaches the device or a pull, so a refused
// request moves no bytes and costs no verification.
func TestBadRangesAreRefused(t *testing.T) {
	r := testrig.New(4)
	srv, other := boot(r, 1), boot(r, 2)
	srv.RegisterFilter("count", countFilter)
	sc := storage.NewClient(r.Caller(3))
	r.Go("client", func(p *sim.Proc) {
		s := newSession(t, p, r, 3, authz.AllOps...)
		ref, err := sc.Create(p, storage.Target{Node: srv.Node(), Port: srv.RPCPort()}, s.caps[authz.OpCreate], s.cid)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		src, err := sc.Create(p, storage.Target{Node: other.Node(), Port: other.RPCPort()}, s.caps[authz.OpCreate], s.cid)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, err := sc.Write(p, ref, s.caps[authz.OpWrite], 0, netsim.SyntheticPayload(4096)); err != nil {
			t.Fatalf("write: %v", err)
		}
		type request func(w, r authz.Capability) error
		write := func(off, n int64) request {
			return func(w, _ authz.Capability) error {
				_, err := sc.Write(p, ref, w, off, netsim.SyntheticPayload(n))
				return err
			}
		}
		read := func(off, n int64) request {
			return func(_, r authz.Capability) error { _, err := sc.Read(p, ref, r, off, n); return err }
		}
		cp := func(dstOff, srcOff, n int64) request {
			return func(w, r authz.Capability) error { _, err := sc.Copy(p, ref, w, dstOff, src, r, srcOff, n); return err }
		}
		filter := func(off, n int64) request {
			return func(_, r authz.Capability) error { _, err := sc.Filter(p, ref, r, off, n, "count", "", 64); return err }
		}
		for name, req := range map[string]request{
			"write at -4096":              write(-4096, 4096),
			"write of -100":               write(0, -100),
			"write ending past MaxInt64":  write(math.MaxInt64-100, 4096),
			"read at -10":                 read(-10, 10),
			"read of -100":                read(0, -100),
			"read ending past MaxInt64":   read(1, math.MaxInt64),
			"copy to -1":                  cp(-1, 0, 10),
			"copy from -1":                cp(0, -1, 10),
			"copy of -1":                  cp(0, 0, -1),
			"copy ending past MaxInt64":   cp(0, 1, math.MaxInt64),
			"filter at -1":                filter(-1, 10),
			"filter of -1":                filter(0, -1),
			"filter ending past MaxInt64": filter(math.MaxInt64, 1),
			"truncate to -1":              func(w, _ authz.Capability) error { return sc.Truncate(p, ref, w, -1) },
		} {
			verifies := r.Metric("authz.verifies")
			if err := req(authz.Capability{}, authz.Capability{}); !errors.Is(err, fs.ErrInvalid) {
				t.Errorf("%s with no capability: %v, want fs.ErrInvalid", name, err)
			}
			if err := req(s.caps[authz.OpWrite], s.caps[authz.OpRead]); !errors.Is(err, fs.ErrInvalid) {
				t.Errorf("%s: %v, want fs.ErrInvalid", name, err)
			}
			if v := r.Metric("authz.verifies"); v != verifies {
				t.Errorf("%s cost %v verifications", name, v-verifies)
			}
		}
		if st, err := sc.Stat(p, ref, s.caps[authz.OpRead]); err != nil || st.Size != 4096 {
			t.Errorf("after the refusals: stat %+v, %v; want the 4096 bytes written", st, err)
		}
		if got, err := sc.Read(p, ref, s.caps[authz.OpRead], 0, 4096); err != nil || got.Size != 4096 {
			t.Errorf("after the refusals: read %d bytes, %v", got.Size, err)
		}
	})
	r.Run(t)
}
