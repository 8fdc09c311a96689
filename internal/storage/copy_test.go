package storage_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"lwfs/internal/authz"
	"lwfs/internal/netsim"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/testrig"
)

func TestThirdPartyCopyRoundTrip(t *testing.T) {
	r := testrig.New(4)
	src := boot(r, 1)
	dst := boot(r, 2)
	sc := storage.NewClient(r.Caller(3))
	r.Go("client", func(p *sim.Proc) {
		s := newSession(t, p, r, 3, authz.AllOps...)
		srcT := storage.Target{Node: src.Node(), Port: src.RPCPort()}
		dstT := storage.Target{Node: dst.Node(), Port: dst.RPCPort()}
		srcRef, _ := sc.Create(p, srcT, s.caps[authz.OpCreate], s.cid)
		dstRef, _ := sc.Create(p, dstT, s.caps[authz.OpCreate], s.cid)
		data := make([]byte, 5000)
		for i := range data {
			data[i] = byte(i * 13)
		}
		if _, err := sc.Write(p, srcRef, s.caps[authz.OpWrite], 0, netsim.BytesPayload(data)); err != nil {
			t.Fatalf("write: %v", err)
		}
		n, err := sc.Copy(p, dstRef, s.caps[authz.OpWrite], 100,
			srcRef, s.caps[authz.OpRead], 0, 5000)
		if err != nil || n != 5000 {
			t.Fatalf("copy: n=%d err=%v", n, err)
		}
		got, err := sc.Read(p, dstRef, s.caps[authz.OpRead], 100, 5000)
		if err != nil || !bytes.Equal(got.Data, data) {
			t.Fatalf("read back: %v", err)
		}
	})
	r.Run(t)
}

func TestCopyRequiresBothCaps(t *testing.T) {
	r := testrig.New(4)
	src := boot(r, 1)
	dst := boot(r, 2)
	sc := storage.NewClient(r.Caller(3))
	r.Go("client", func(p *sim.Proc) {
		s := newSession(t, p, r, 3, authz.AllOps...)
		srcT := storage.Target{Node: src.Node(), Port: src.RPCPort()}
		dstT := storage.Target{Node: dst.Node(), Port: dst.RPCPort()}
		srcRef, _ := sc.Create(p, srcT, s.caps[authz.OpCreate], s.cid)
		dstRef, _ := sc.Create(p, dstT, s.caps[authz.OpCreate], s.cid)
		sc.Write(p, srcRef, s.caps[authz.OpWrite], 0, netsim.SyntheticPayload(1000))

		// Wrong destination capability.
		if _, err := sc.Copy(p, dstRef, s.caps[authz.OpRead], 0,
			srcRef, s.caps[authz.OpRead], 0, 1000); !errors.Is(err, authz.ErrWrongOp) {
			t.Errorf("copy with read cap as write: %v", err)
		}
		// Wrong source capability: the *source server* rejects the pull.
		if _, err := sc.Copy(p, dstRef, s.caps[authz.OpWrite], 0,
			srcRef, s.caps[authz.OpWrite], 0, 1000); !errors.Is(err, authz.ErrWrongOp) {
			t.Errorf("copy with write cap as read: %v", err)
		}
	})
	r.Run(t)
}

func TestCopyShortAtSourceEOF(t *testing.T) {
	r := testrig.New(4)
	src := boot(r, 1)
	dst := boot(r, 2)
	sc := storage.NewClient(r.Caller(3))
	r.Go("client", func(p *sim.Proc) {
		s := newSession(t, p, r, 3, authz.AllOps...)
		srcT := storage.Target{Node: src.Node(), Port: src.RPCPort()}
		dstT := storage.Target{Node: dst.Node(), Port: dst.RPCPort()}
		srcRef, _ := sc.Create(p, srcT, s.caps[authz.OpCreate], s.cid)
		dstRef, _ := sc.Create(p, dstT, s.caps[authz.OpCreate], s.cid)
		sc.Write(p, srcRef, s.caps[authz.OpWrite], 0, netsim.SyntheticPayload(700))
		n, err := sc.Copy(p, dstRef, s.caps[authz.OpWrite], 0,
			srcRef, s.caps[authz.OpRead], 0, 5000)
		if err != nil || n != 700 {
			t.Fatalf("short copy: n=%d err=%v", n, err)
		}
	})
	r.Run(t)
}

// TestCopyBypassesClientNIC: redistributing via third-party transfer moves
// data once (src server -> dst server); relaying through the client moves
// it twice and serializes on the client NIC.
func TestCopyBypassesClientNIC(t *testing.T) {
	const size = 256 * mb
	run := func(thirdParty bool) time.Duration {
		r := testrig.New(4)
		src := boot(r, 1)
		dst := boot(r, 2)
		sc := storage.NewClient(r.Caller(3))
		var elapsed time.Duration
		r.Go("client", func(p *sim.Proc) {
			s := newSession(t, p, r, 3, authz.AllOps...)
			srcT := storage.Target{Node: src.Node(), Port: src.RPCPort()}
			dstT := storage.Target{Node: dst.Node(), Port: dst.RPCPort()}
			srcRef, _ := sc.Create(p, srcT, s.caps[authz.OpCreate], s.cid)
			dstRef, _ := sc.Create(p, dstT, s.caps[authz.OpCreate], s.cid)
			sc.Write(p, srcRef, s.caps[authz.OpWrite], 0, netsim.SyntheticPayload(size))
			start := p.Now()
			if thirdParty {
				if _, err := sc.Copy(p, dstRef, s.caps[authz.OpWrite], 0,
					srcRef, s.caps[authz.OpRead], 0, size); err != nil {
					t.Errorf("copy: %v", err)
				}
			} else {
				payload, err := sc.Read(p, srcRef, s.caps[authz.OpRead], 0, size)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if _, err := sc.Write(p, dstRef, s.caps[authz.OpWrite], 0, payload); err != nil {
					t.Errorf("write: %v", err)
				}
			}
			elapsed = p.Now().Sub(start)
		})
		r.Run(t)
		return elapsed
	}
	direct := run(true)
	relay := run(false)
	t.Logf("third-party %v vs client relay %v", direct, relay)
	if direct >= relay {
		t.Fatalf("third-party copy (%v) not faster than relay (%v)", direct, relay)
	}
}
