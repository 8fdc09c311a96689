package iocache_test

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"lwfs/internal/authz"
	"lwfs/internal/cluster"
	"lwfs/internal/core"
	"lwfs/internal/iocache"
	"lwfs/internal/netsim"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/testrig"
)

const kb = 1 << 10
const mb = 1 << 20

type rig struct {
	cl   *cluster.Cluster
	c    *core.Client
	caps core.CapSet
	ref  storage.ObjRef
}

// setup boots a small system and stores an object of the given content
// (nil => synthetic of size).
func setup(t *testing.T, content []byte, size int64, fn func(r *rig, p *sim.Proc)) *rig {
	if t == nil {
		t = new(testing.T) // property tests report via their own bool
	}
	t.Helper()
	spec := cluster.DevCluster().WithServers(2)
	spec.ComputeNodes = 2
	cl := cluster.New(spec)
	cl.RegisterUser("u", "pw")
	l := cl.DeployLWFS()
	r := &rig{cl: cl, c: cl.NewClient(l, 0)}
	cl.Spawn("setup", func(p *sim.Proc) {
		if err := r.c.Login(p, "u", "pw"); err != nil {
			t.Errorf("login: %v", err)
			return
		}
		cid, _ := r.c.CreateContainer(p)
		caps, err := r.c.GetCaps(p, cid, authz.AllOps...)
		if err != nil {
			t.Errorf("caps: %v", err)
			return
		}
		r.caps = caps
		ref, err := r.c.CreateObject(p, r.c.Server(0), caps)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		r.ref = ref
		payload := netsim.SyntheticPayload(size)
		if content != nil {
			payload = netsim.BytesPayload(content)
		}
		if _, err := r.c.Write(p, ref, caps, 0, payload); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		fn(r, p)
	})
	return r
}

// metric reads one counter of the test's (only) reader from the registry.
func (r *rig) metric(name string) int64 {
	return testrig.Metric(r.cl.Metrics(), "iocache.*."+name)
}

func run(t *testing.T, r *rig) {
	t.Helper()
	if err := r.cl.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCachedReadsMatchDirect(t *testing.T) {
	content := make([]byte, 300*kb)
	rand.New(rand.NewSource(1)).Read(content)
	r := setup(t, content, 0, func(r *rig, p *sim.Proc) {
		rd, err := iocache.NewReader(p, r.c, r.ref, r.caps, iocache.Options{BlockSize: 64 * kb})
		if err != nil {
			t.Errorf("reader: %v", err)
			return
		}
		for _, win := range [][2]int64{{0, 300 * kb}, {10, 1000}, {63 * kb, 2 * kb}, {250 * kb, 100 * kb}} {
			got, err := rd.ReadAt(p, win[0], win[1])
			if err != nil {
				t.Errorf("read %v: %v", win, err)
				return
			}
			end := win[0] + win[1]
			if end > int64(len(content)) {
				end = int64(len(content))
			}
			if !bytes.Equal(got.Data, content[win[0]:end]) {
				t.Errorf("window %v mismatch", win)
				return
			}
		}
	})
	run(t, r)
}

func TestRereadHitsCache(t *testing.T) {
	r := setup(t, nil, 10*mb, func(r *rig, p *sim.Proc) {
		rd, err := iocache.NewReader(p, r.c, r.ref, r.caps, iocache.Options{ReadAhead: -1})
		if err != nil {
			t.Errorf("reader: %v", err)
			return
		}
		if _, err := rd.ReadAt(p, 0, 2*mb); err != nil {
			t.Errorf("read 1: %v", err)
			return
		}
		t0 := p.Now()
		if _, err := rd.ReadAt(p, 0, 2*mb); err != nil {
			t.Errorf("read 2: %v", err)
			return
		}
		if cost := p.Now().Sub(t0); cost > time.Microsecond {
			t.Errorf("cached re-read cost %v", cost)
		}
		hits, misses := r.metric("hits"), r.metric("misses")
		if misses != 2 || hits != 2 {
			t.Errorf("hits=%d misses=%d", hits, misses)
		}
	})
	run(t, r)
}

func TestSequentialPrefetchCutsLatency(t *testing.T) {
	const size = 32 * mb
	readAll := func(readAhead int) (d time.Duration) {
		r := setup(t, nil, size, func(r *rig, p *sim.Proc) {
			rd, err := iocache.NewReader(p, r.c, r.ref, r.caps, iocache.Options{ReadAhead: readAhead})
			if err != nil {
				t.Errorf("reader: %v", err)
				return
			}
			start := p.Now()
			for off := int64(0); off < size; off += mb {
				if _, err := rd.ReadAt(p, off, mb); err != nil {
					t.Errorf("read: %v", err)
					return
				}
				// Model compute between reads: prefetch overlaps it.
				p.Sleep(5 * time.Millisecond)
			}
			d = p.Now().Sub(start)
		})
		run(t, r)
		return d
	}
	with := readAll(4)
	without := readAll(-1)
	t.Logf("sequential scan: prefetch %v vs none %v", with, without)
	if with >= without {
		t.Fatalf("prefetch did not help: %v vs %v", with, without)
	}
}

func TestLRUEvictionBoundsCache(t *testing.T) {
	r := setup(t, nil, 20*mb, func(r *rig, p *sim.Proc) {
		rd, err := iocache.NewReader(p, r.c, r.ref, r.caps,
			iocache.Options{CapacityBlocks: 4, ReadAhead: -1})
		if err != nil {
			t.Errorf("reader: %v", err)
			return
		}
		for off := int64(0); off < 10*mb; off += mb {
			rd.ReadAt(p, off, mb)
		}
		misses, evictions := r.metric("misses"), r.metric("evictions")
		if misses != 10 || evictions != 6 {
			t.Errorf("misses=%d evictions=%d", misses, evictions)
		}
		// Oldest block is gone: re-reading it misses again.
		rd.ReadAt(p, 0, mb)
		if misses = r.metric("misses"); misses != 11 {
			t.Errorf("expected evicted block to miss: misses=%d", misses)
		}
	})
	run(t, r)
}

func TestReadPastEOF(t *testing.T) {
	r := setup(t, []byte("short"), 0, func(r *rig, p *sim.Proc) {
		rd, err := iocache.NewReader(p, r.c, r.ref, r.caps, iocache.Options{})
		if err != nil {
			t.Errorf("reader: %v", err)
			return
		}
		got, err := rd.ReadAt(p, 3, 100)
		if err != nil || string(got.Data) != "rt" {
			t.Errorf("tail read: %q %v", got.Data, err)
		}
		got, err = rd.ReadAt(p, 100, 10)
		if err != nil || got.Size != 0 {
			t.Errorf("past-eof read: %+v %v", got, err)
		}
	})
	run(t, r)
}

// Property: any schedule of reads through the cache returns exactly what a
// direct read returns.
func TestCacheTransparencyProperty(t *testing.T) {
	prop := func(seed int64) bool {
		content := make([]byte, 100*kb)
		rand.New(rand.NewSource(seed)).Read(content)
		ok := true
		r := setup(nil, content, 0, func(r *rig, p *sim.Proc) {
			rd, err := iocache.NewReader(p, r.c, r.ref, r.caps,
				iocache.Options{BlockSize: 8 * kb, CapacityBlocks: 3})
			if err != nil {
				ok = false
				return
			}
			rng := rand.New(rand.NewSource(seed + 1))
			for i := 0; i < 12; i++ {
				off := int64(rng.Intn(110 * kb))
				n := int64(rng.Intn(30*kb) + 1)
				got, err := rd.ReadAt(p, off, n)
				if err != nil {
					ok = false
					return
				}
				end := off + n
				if end > int64(len(content)) {
					end = int64(len(content))
				}
				if off >= int64(len(content)) {
					if got.Size != 0 {
						ok = false
						return
					}
					continue
				}
				if !bytes.Equal(got.Data, content[off:end]) {
					ok = false
					return
				}
			}
		})
		if err := r.cl.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
