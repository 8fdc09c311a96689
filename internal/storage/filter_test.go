package storage_test

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"lwfs/internal/authz"
	"lwfs/internal/netsim"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/testrig"
)

// sumFilter folds a running uint64 sum of bytes into an 8-byte accumulator.
func sumFilter(acc []byte, chunk netsim.Payload) []byte {
	var sum uint64
	if len(acc) == 8 {
		sum = binary.BigEndian.Uint64(acc)
	}
	for _, b := range chunk.Data {
		sum += uint64(b)
	}
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, sum)
	return out
}

// countFilter counts bytes seen (works for synthetic payloads too).
func countFilter(acc []byte, chunk netsim.Payload) []byte {
	var n uint64
	if len(acc) == 8 {
		n = binary.BigEndian.Uint64(acc)
	}
	n += uint64(chunk.Size)
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, n)
	return out
}

func TestFilterComputesOverRealData(t *testing.T) {
	r := testrig.New(3)
	srv := boot(r, 1)
	srv.RegisterFilter("sum", sumFilter)
	sc := storage.NewClient(r.Caller(2))
	r.Go("client", func(p *sim.Proc) {
		s := newSession(t, p, r, 2, authz.OpCreate, authz.OpWrite, authz.OpRead)
		tgt := storage.Target{Node: srv.Node(), Port: srv.RPCPort()}
		ref, _ := sc.Create(p, tgt, s.caps[authz.OpCreate], s.cid)
		data := make([]byte, 5000)
		var want uint64
		for i := range data {
			data[i] = byte(i % 251)
			want += uint64(data[i])
		}
		if _, err := sc.Write(p, ref, s.caps[authz.OpWrite], 0, netsim.BytesPayload(data)); err != nil {
			t.Fatalf("write: %v", err)
		}
		out, err := sc.Filter(p, ref, s.caps[authz.OpRead], 0, 5000, "sum", "", 64)
		if err != nil {
			t.Fatalf("filter: %v", err)
		}
		if got := binary.BigEndian.Uint64(out); got != want {
			t.Fatalf("sum = %d want %d", got, want)
		}
	})
	r.Run(t)
}

func TestFilterRequiresReadCap(t *testing.T) {
	r := testrig.New(3)
	srv := boot(r, 1)
	srv.RegisterFilter("count", countFilter)
	sc := storage.NewClient(r.Caller(2))
	r.Go("client", func(p *sim.Proc) {
		s := newSession(t, p, r, 2, authz.OpCreate, authz.OpWrite)
		tgt := storage.Target{Node: srv.Node(), Port: srv.RPCPort()}
		ref, _ := sc.Create(p, tgt, s.caps[authz.OpCreate], s.cid)
		sc.Write(p, ref, s.caps[authz.OpWrite], 0, netsim.SyntheticPayload(1000))
		// Write cap is not enough: a filter is a read.
		if _, err := sc.Filter(p, ref, s.caps[authz.OpWrite], 0, 1000, "count", "", 64); !errors.Is(err, authz.ErrWrongOp) {
			t.Errorf("filter with write cap: %v", err)
		}
	})
	r.Run(t)
}

func TestFilterUnknownName(t *testing.T) {
	r := testrig.New(3)
	srv := boot(r, 1)
	sc := storage.NewClient(r.Caller(2))
	r.Go("client", func(p *sim.Proc) {
		s := newSession(t, p, r, 2, authz.OpCreate, authz.OpRead)
		tgt := storage.Target{Node: srv.Node(), Port: srv.RPCPort()}
		ref, _ := sc.Create(p, tgt, s.caps[authz.OpCreate], s.cid)
		if _, err := sc.Filter(p, ref, s.caps[authz.OpRead], 0, 10, "nope", "", 64); !errors.Is(err, storage.ErrNoFilter) {
			t.Errorf("unknown filter: %v", err)
		}
	})
	r.Run(t)
}

func TestFilterMovesComputeNotData(t *testing.T) {
	// Active storage's win is aggregate: a dataset spread over many
	// servers is scanned in parallel next to each disk, while "read it
	// all" funnels every byte through the one client NIC. 8 servers x
	// 128 MB: filters finish in ~disk+CPU of one shard; the read-all
	// serializes ~1 GiB on the client ingress.
	const servers = 8
	const shard = 128 * mb
	r := testrig.New(2 + servers)
	var srvs []*storage.Server
	for i := 0; i < servers; i++ {
		srv := boot(r, 2+i)
		srv.RegisterFilter("count", countFilter)
		srvs = append(srvs, srv)
	}
	sc := storage.NewClient(r.Caller(1))
	var filterTime, readTime time.Duration
	r.Go("client", func(p *sim.Proc) {
		s := newSession(t, p, r, 1, authz.OpCreate, authz.OpWrite, authz.OpRead)
		refs := make([]storage.ObjRef, servers)
		for i, srv := range srvs {
			tgt := storage.Target{Node: srv.Node(), Port: srv.RPCPort()}
			ref, err := sc.Create(p, tgt, s.caps[authz.OpCreate], s.cid)
			if err != nil {
				t.Fatalf("create %d: %v", i, err)
			}
			refs[i] = ref
			if _, err := sc.Write(p, ref, s.caps[authz.OpWrite], 0, netsim.SyntheticPayload(shard)); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		scan := func(useFilter bool) time.Duration {
			start := p.Now()
			var wg sim.WaitGroup
			wg.Add(servers)
			for i := range refs {
				ref := refs[i]
				p.Kernel().Spawn("scan", func(q *sim.Proc) {
					defer wg.Done()
					if useFilter {
						out, err := sc.Filter(q, ref, s.caps[authz.OpRead], 0, shard, "count", "", 64)
						if err != nil {
							t.Errorf("filter: %v", err)
							return
						}
						if got := binary.BigEndian.Uint64(out); got != shard {
							t.Errorf("count = %d", got)
						}
					} else {
						if _, err := sc.Read(q, ref, s.caps[authz.OpRead], 0, shard); err != nil {
							t.Errorf("read: %v", err)
						}
					}
				})
			}
			wg.Wait(p)
			return p.Now().Sub(start)
		}
		filterTime = scan(true)
		readTime = scan(false)
	})
	r.Run(t)
	// Filters: max(shard/disk + shard/cpu) ≈ 1.7s. Read-all: 1 GiB through
	// a 230 MB/s client NIC ≈ 4.5s. Demand at least a 2x win.
	if readTime < 2*filterTime {
		t.Fatalf("active storage win too small: filter %v, read-all %v", filterTime, readTime)
	}
}
