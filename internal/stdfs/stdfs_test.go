package stdfs_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/fstest"
	"time"

	"lwfs/internal/cluster"
	"lwfs/internal/lwfspfs"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/stdfs"
	"lwfs/internal/storage"
	"lwfs/internal/stripe"
	"lwfs/internal/trace"
)

var pfsRetry = portals.RetryPolicy{
	MaxAttempts: 2,
	Timeout:     25 * time.Millisecond,
	Backoff:     time.Millisecond,
	Jitter:      100 * time.Microsecond,
}

func testCluster() (*cluster.Cluster, *cluster.LWFS) {
	spec := cluster.DevCluster()
	spec.ComputeNodes = 4
	spec = spec.WithServers(4)
	cl := cluster.New(spec)
	cl.RegisterUser("alice", "pa")
	return cl, cl.DeployLWFS()
}

func run(t testing.TB, cl *cluster.Cluster) {
	t.Helper()
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// withMount formats a fresh mount and hands the test body a bound facade
// on a spawned proc.
func withMount(t testing.TB, opts lwfspfs.Options, body func(p *sim.Proc, cl *cluster.Cluster, lw *cluster.LWFS, x *stdfs.FS)) {
	t.Helper()
	cl, lw := testCluster()
	c := cl.NewClient(lw, 0)
	c.SetRetry(pfsRetry, 17)
	cl.Spawn("app", func(p *sim.Proc) {
		if err := c.Login(p, "alice", "pa"); err != nil {
			t.Fatalf("login: %v", err)
		}
		pfs, err := lwfspfs.Format(p, c, "/vol", opts)
		if err != nil {
			t.Fatalf("format: %v", err)
		}
		body(p, cl, lw, stdfs.New(p, pfs))
	})
	run(t, cl)
}

func write(t *testing.T, x *stdfs.FS, name string, data []byte) {
	t.Helper()
	f, err := x.Create(name)
	if err != nil {
		t.Fatalf("create %s: %v", name, err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("write %s: %v", name, err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close %s: %v", name, err)
	}
}

// The facade passes the standard library's own conformance suite against a
// live simulated mount: every fs.FS contract — Open semantics, ReadDir
// ordering and paging, Stat agreement, path validation — checked by the
// same harness that checks os.DirFS.
// schemes are the three redundancy schemes, each on a 4 KiB stripe unit.
var schemes = []struct {
	name string
	opts lwfspfs.Options
}{
	{"raid0", lwfspfs.Options{StripeUnit: 4096}},
	{"replica", lwfspfs.Options{Scheme: stripe.Replica, StripeUnit: 4096}},
	{"parity", lwfspfs.Options{Scheme: stripe.Parity, StripeUnit: 4096}},
}

func TestFSTestConformance(t *testing.T) {
	withMount(t, lwfspfs.Options{}, func(p *sim.Proc, cl *cluster.Cluster, lw *cluster.LWFS, x *stdfs.FS) {
		if err := x.Mkdir("data"); err != nil {
			t.Fatal(err)
		}
		if err := x.Mkdir("data/sub"); err != nil {
			t.Fatal(err)
		}
		write(t, x, "hello.txt", []byte("hello, simulated world\n"))
		write(t, x, "data/a.bin", bytes.Repeat([]byte{0xab}, 1000))
		write(t, x, "data/sub/deep.bin", []byte("nested"))
		if err := fstest.TestFS(x, "hello.txt", "data/a.bin", "data/sub/deep.bin"); err != nil {
			t.Fatal(err)
		}
	})
}

func TestWalkDirAndStat(t *testing.T) {
	withMount(t, lwfspfs.Options{}, func(p *sim.Proc, cl *cluster.Cluster, lw *cluster.LWFS, x *stdfs.FS) {
		if err := x.Mkdir("logs"); err != nil {
			t.Fatal(err)
		}
		write(t, x, "logs/one.log", make([]byte, 111))
		write(t, x, "logs/two.log", make([]byte, 222))
		write(t, x, "top.txt", make([]byte, 7))

		var visited []string
		err := fs.WalkDir(x, ".", func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			visited = append(visited, path)
			return nil
		})
		if err != nil {
			t.Fatalf("walk: %v", err)
		}
		want := []string{".", "logs", "logs/one.log", "logs/two.log", "top.txt"}
		if len(visited) != len(want) {
			t.Fatalf("walk visited %v, want %v", visited, want)
		}
		for i := range want {
			if visited[i] != want[i] {
				t.Fatalf("walk visited %v, want %v", visited, want)
			}
		}

		info, err := fs.Stat(x, "logs/two.log")
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() != 222 || info.IsDir() || info.Mode() != 0o644 {
			t.Fatalf("stat = %v", info)
		}
		if _, err := fs.Stat(x, "missing.txt"); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("missing stat err = %v, want ErrNotExist", err)
		}
		// The superblock stays invisible no matter how it is reached.
		if _, err := x.Open(".lwfspfs"); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("superblock open err = %v, want ErrNotExist", err)
		}
	})
}

// Stock io plumbing moves data across a striped file: io.Copy pulls from
// an io.SectionReader over a multi-server layout and the bytes survive.
func TestSectionReaderCopyOverStripes(t *testing.T) {
	withMount(t, lwfspfs.Options{StripeUnit: 64 << 10},
		func(p *sim.Proc, cl *cluster.Cluster, lw *cluster.LWFS, x *stdfs.FS) {
			data := make([]byte, 256<<10) // 4 stripe units, all 4 servers
			rand.New(rand.NewSource(5)).Read(data)
			write(t, x, "wide.bin", data)

			f, err := x.OpenFile("wide.bin")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()

			// A section spanning stripe boundaries, copied with io.Copy.
			const off, n = 60_000, 150_000
			var buf bytes.Buffer
			if _, err := io.Copy(&buf, io.NewSectionReader(f, off, n)); err != nil {
				t.Fatalf("copy: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), data[off:off+n]) {
				t.Fatal("section copy mismatch")
			}

			// And back out through the seeker side: Seek + Read from EOF-64.
			if _, err := f.Seek(-64, io.SeekEnd); err != nil {
				t.Fatal(err)
			}
			tail := make([]byte, 64)
			if _, err := io.ReadFull(f, tail); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(tail, data[len(data)-64:]) {
				t.Fatal("tail read mismatch")
			}

			got, err := fs.ReadFile(x, "wide.bin")
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("fs.ReadFile mismatch: %v", err)
			}
		})
}

// fs.ReadFile through the facade survives a storage-server crash on a
// replicated layout: the degraded read happens below the standard
// interface, invisibly to the caller.
func TestReadFileDegraded(t *testing.T) {
	withMount(t, lwfspfs.Options{StripeUnit: 64 << 10, Scheme: stripe.Replica},
		func(p *sim.Proc, cl *cluster.Cluster, lw *cluster.LWFS, x *stdfs.FS) {
			data := make([]byte, 300_000)
			rand.New(rand.NewSource(11)).Read(data)
			f, err := x.Create("red.bin")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(data, 0); err != nil {
				t.Fatal(err)
			}
			layout := f.Handle().Layout()
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			dead := storage.TargetOf(layout.Objs[1])
			for _, srv := range lw.Servers {
				if (storage.Target{Node: srv.Node(), Port: srv.RPCPort()}) == dead {
					srv.Crash()
				}
			}

			got, err := fs.ReadFile(x, "red.bin")
			if err != nil {
				t.Fatalf("degraded ReadFile: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("degraded ReadFile mismatch")
			}
		})
}

func TestWriteGuards(t *testing.T) {
	withMount(t, lwfspfs.Options{}, func(p *sim.Proc, cl *cluster.Cluster, lw *cluster.LWFS, x *stdfs.FS) {
		write(t, x, "guarded.bin", []byte("abc"))
		// fs.FS Open yields a read-only handle.
		h, err := x.Open("guarded.bin")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.(*stdfs.File).WriteAt([]byte("x"), 0); err == nil {
			t.Fatal("write through read-only handle succeeded")
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		if err := h.Close(); !errors.Is(err, fs.ErrClosed) {
			t.Fatalf("double close err = %v", err)
		}
		if _, err := x.Open("../escape"); !errors.Is(err, fs.ErrInvalid) {
			t.Fatalf("invalid name err = %v", err)
		}
	})
}

// A negative offset is refused on every read and write path, before
// anything moves: an io.WriterAt that writes fewer than len(p) bytes must
// say why, and a read must not hand back bytes from before the file's
// start. Each scheme's read path is checked, with one offset a whole
// stripe unit back.
func TestReadWriteRefuseNegativeOffset(t *testing.T) {
	for _, c := range schemes {
		t.Run(c.name, func(t *testing.T) {
			withMount(t, c.opts, func(p *sim.Proc, cl *cluster.Cluster, lw *cluster.LWFS, x *stdfs.FS) {
				const content = "hello world, hello world"
				f, err := x.Create("neg.bin")
				if err != nil {
					t.Fatal(err)
				}
				if n, err := f.WriteAt([]byte("hello"), -1); n != 0 || !errors.Is(err, fs.ErrInvalid) {
					t.Errorf("WriteAt(-1) = %d, %v; want 0, fs.ErrInvalid", n, err)
				}
				if n, err := f.WriteSeeded(-4096, 4096, 7); n != 0 || !errors.Is(err, fs.ErrInvalid) {
					t.Errorf("WriteSeeded(-4096) = %d, %v; want 0, fs.ErrInvalid", n, err)
				}
				if n, err := f.WriteSynthetic(-4096, 4096); n != 0 || !errors.Is(err, fs.ErrInvalid) {
					t.Errorf("WriteSynthetic(-4096) = %d, %v; want 0, fs.ErrInvalid", n, err)
				}
				if n, err := f.Handle().WriteAt(p, -1, netsim.BytesPayload([]byte("hello"))); n != 0 || !errors.Is(err, fs.ErrInvalid) {
					t.Errorf("lwfspfs WriteAt(-1) = %d, %v; want 0, fs.ErrInvalid", n, err)
				}
				if st, err := f.Stat(); err != nil {
					t.Error(err)
				} else if st.Size() != 0 {
					t.Errorf("after refused writes the file holds %d bytes, want none", st.Size())
				}

				if _, err := f.WriteAt([]byte(content), 0); err != nil {
					t.Fatal(err)
				}
				for _, off := range []int64{-4, -4096} {
					if n, err := f.ReadAt(make([]byte, 8), off); n != 0 || !errors.Is(err, fs.ErrInvalid) {
						t.Errorf("ReadAt(%d) = %d, %v; want 0, fs.ErrInvalid", off, n, err)
					}
					if n, err := f.ReadDiscard(off, 8); n != 0 || !errors.Is(err, fs.ErrInvalid) {
						t.Errorf("ReadDiscard(%d) = %d, %v; want 0, fs.ErrInvalid", off, n, err)
					}
					if pay, err := f.Handle().ReadAt(p, off, 8); pay.Size != 0 || !errors.Is(err, fs.ErrInvalid) {
						t.Errorf("lwfspfs ReadAt(%d) = %q (%d B), %v; want nothing, fs.ErrInvalid", off, pay.Data, pay.Size, err)
					}
				}
				got := make([]byte, len(content))
				if _, err := f.ReadAt(got, 0); err != nil || string(got) != content {
					t.Errorf("ReadAt(0) = %q, %v; want %q", got, err, content)
				}
			})
		})
	}
}

// A negative length, or a range whose end is past math.MaxInt64, is refused
// before anything moves: such a write must not set the file's size from
// off+size, and such a read must not answer "nothing there". Each scheme,
// through the facade and through the lwfspfs handle; the file stays empty.
func TestReadWriteRefuseNegativeLength(t *testing.T) {
	for _, c := range schemes {
		t.Run(c.name, func(t *testing.T) {
			withMount(t, c.opts, func(p *sim.Proc, cl *cluster.Cluster, lw *cluster.LWFS, x *stdfs.FS) {
				f, err := x.Create("neglen.bin")
				if err != nil {
					t.Fatal(err)
				}
				refused := func(call string, n int64, err error) {
					t.Helper()
					if n != 0 || !errors.Is(err, fs.ErrInvalid) {
						t.Errorf("%s = %d, %v; want 0, fs.ErrInvalid", call, n, err)
					}
				}
				const far = math.MaxInt64 - 8 // off+16 overflows
				n, err := f.WriteSynthetic(100, -50)
				refused("WriteSynthetic(100, -50)", n, err)
				n, err = f.WriteSeeded(0, -5, 7)
				refused("WriteSeeded(0, -5)", n, err)
				n, err = f.WriteSeeded(far, 16, 7)
				refused("WriteSeeded(MaxInt64-8, 16)", n, err)
				n, err = f.Handle().WriteAt(p, 100, netsim.SyntheticPayload(-50))
				refused("lwfspfs WriteAt(100, -50 B)", n, err)
				n, err = f.Handle().WriteAt(p, far, netsim.SyntheticPayload(16))
				refused("lwfspfs WriteAt(MaxInt64-8, 16 B)", n, err)
				if st, err := f.Stat(); err != nil {
					t.Error(err)
				} else if st.Size() != 0 {
					t.Errorf("after refused writes the file holds %d bytes, want none", st.Size())
				}

				n, err = f.ReadDiscard(0, -5)
				refused("ReadDiscard(0, -5)", n, err)
				pay, err := f.Handle().ReadAt(p, 0, -5)
				refused("lwfspfs ReadAt(0, -5)", pay.Size, err)
				pay, err = f.Handle().ReadAt(p, far, 16)
				refused("lwfspfs ReadAt(MaxInt64-8, 16)", pay.Size, err)
			})
		})
	}
}

// replicaOpts is a 2-copy replica mount of one column: both copies of every
// byte, one per server.
var replicaOpts = lwfspfs.Options{Scheme: stripe.Replica, Stripes: 1}

// A replay write hands its bytes down frozen, so both copies of a replica
// keep one buffer. Rewriting half of it with another seed must still leave
// each copy with the new bytes: read with either server crashed, the file
// is the second write over the first.
func TestSeededOverwriteReadsBackFromEitherCopy(t *testing.T) {
	withMount(t, replicaOpts, func(p *sim.Proc, cl *cluster.Cluster, lw *cluster.LWFS, x *stdfs.FS) {
		const n = 64 << 10
		f, err := x.Create("replay.dat")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteSeeded(0, n, 7); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteSeeded(n/4, n/2, 8); err != nil {
			t.Fatal(err)
		}
		want := trace.DataFor(7, n)
		copy(want[n/4:], trace.DataFor(8, n/2))
		l := f.Handle().Layout()
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		for c := 0; c < 2; c++ {
			dead := storage.TargetOf(l.ReplicaObj(c, 0))
			var srv *storage.Server
			for _, s := range lw.Servers {
				if (storage.Target{Node: s.Node(), Port: s.RPCPort()}) == dead {
					srv = s
				}
			}
			srv.Crash()
			got, err := fs.ReadFile(x, "replay.dat")
			if err != nil {
				t.Fatalf("copy %d's server down: %v", c, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("copy %d's server down: the file is not the second write over the first", c)
			}
			if _, err := srv.Restart(p); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// Seeded writes on a 2-copy mount allocate their bytes once: both servers
// keep the generated buffer instead of copying it, so the host allocates
// little more than one byte per byte written (three when each copy was
// private).
func TestSeededWriteAllocatesItsBytesOnce(t *testing.T) {
	withMount(t, replicaOpts, func(p *sim.Proc, cl *cluster.Cluster, lw *cluster.LWFS, x *stdfs.FS) {
		const n, writes = 256 << 10, 16
		f, err := x.Create("alloc.dat")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteSeeded(0, n, 1); err != nil { // warm the path
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < writes; i++ {
			if _, err := f.WriteSeeded(int64(i)*n, n, uint64(i+2)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perByte := float64(after.TotalAlloc-before.TotalAlloc) / (writes * n)
		t.Logf("%.3f bytes allocated per seeded byte written", perByte)
		if perByte > 1.25 {
			t.Fatalf("%.2f bytes allocated per seeded byte written, want at most 1.25", perByte)
		}
	})
}

// Replay clones write the same content seeds. Through one FS every write of
// a (seed, length) after the first reuses the first one's buffer, so
// sixteen files cost the bytes of one, and each reads back its content.
func TestSeededClonesShareOneBuffer(t *testing.T) {
	withMount(t, replicaOpts, func(p *sim.Proc, cl *cluster.Cluster, lw *cluster.LWFS, x *stdfs.FS) {
		const n, files, seed = 256 << 10, 16, 9
		fl := make([]*stdfs.File, files)
		for i := range fl {
			var err error
			if fl[i], err = x.Create(fmt.Sprintf("clone%d.dat", i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := fl[0].WriteSeeded(0, n, seed); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, f := range fl[1:] {
			if _, err := f.WriteSeeded(0, n, seed); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perByte := float64(after.TotalAlloc-before.TotalAlloc) / ((files - 1) * n)
		t.Logf("%.4f bytes allocated per seeded byte after the first write", perByte)
		if perByte > 0.1 {
			t.Errorf("%.3f bytes allocated per seeded byte after the first write, want at most 0.1", perByte)
		}
		want := trace.DataFor(seed, n)
		for i, f := range fl {
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if got, err := fs.ReadFile(x, fmt.Sprintf("clone%d.dat", i)); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("clone%d.dat: %d bytes, %v; want the seed's %d bytes", i, len(got), err, n)
			}
		}
	})
}

// One seed at two lengths is two contents: each write gets the bytes of
// its own length, whichever was written first.
func TestSeededLengthsKeepTheirBytes(t *testing.T) {
	withMount(t, lwfspfs.Options{StripeUnit: 4096}, func(p *sim.Proc, cl *cluster.Cluster, lw *cluster.LWFS, x *stdfs.FS) {
		const seed = 5
		lens := []int64{10000, 30003, 10000, 30003}
		for i, n := range lens {
			f, err := x.Create(fmt.Sprintf("len%d.dat", i))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteSeeded(0, n, seed); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
		for i, n := range lens {
			got, err := fs.ReadFile(x, fmt.Sprintf("len%d.dat", i))
			if err != nil || !bytes.Equal(got, trace.DataFor(seed, n)) {
				t.Errorf("len%d.dat: %d bytes, %v; want the seed's %d bytes", i, len(got), err, n)
			}
		}
	})
}

// The memo keeps no buffer alive by itself: 1 024 distinct seeds written
// over 16 offsets leave 16 of them in the file, and after a collection the
// heap holds little more than those (a memo that kept every buffer would
// hold 64 MiB).
func TestSeededMemoPinsNothing(t *testing.T) {
	withMount(t, replicaOpts, func(p *sim.Proc, cl *cluster.Cluster, lw *cluster.LWFS, x *stdfs.FS) {
		const n, writes = 64 << 10, 1024
		f, err := x.Create("churn.dat")
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < writes; i++ {
			if _, err := f.WriteSeeded(int64(i%16)*n, n, uint64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		grew := int64(after.HeapInuse) - int64(before.HeapInuse)
		t.Logf("heap in use grew by %.2f MiB", float64(grew)/(1<<20))
		if grew >= 16<<20 {
			t.Errorf("heap in use grew by %.1f MiB over %d seeded writes, want under 16", float64(grew)/(1<<20), writes)
		}
	})
}

// BenchmarkWriteSeeded is one 64 KiB replay write on a 2-copy replica
// mount: generating the bytes, the write RPC to both servers, their pulls
// and stores. Writes cycle over 16 offsets, so the file stops growing.
func BenchmarkWriteSeeded(b *testing.B) {
	withMount(b, replicaOpts, func(p *sim.Proc, cl *cluster.Cluster, lw *cluster.LWFS, x *stdfs.FS) {
		const n = 64 << 10
		f, err := x.Create("bench.dat")
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.WriteSeeded(int64(i%16)*n, n, uint64(i+1)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
	})
}

// BenchmarkWriteSeededRepeat is BenchmarkWriteSeeded for content the mount
// wrote before — the replay clone case: a first file holds the 16 seeds, and
// the timed writes put the same seeds at the same offsets of a second file.
func BenchmarkWriteSeededRepeat(b *testing.B) {
	withMount(b, replicaOpts, func(p *sim.Proc, cl *cluster.Cluster, lw *cluster.LWFS, x *stdfs.FS) {
		const n = 64 << 10
		first, err := x.Create("first.dat")
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			if _, err := first.WriteSeeded(int64(i)*n, n, uint64(i+1)); err != nil {
				b.Fatal(err)
			}
		}
		f, err := x.Create("clone.dat")
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.WriteSeeded(int64(i%16)*n, n, uint64(i%16+1)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
	})
}
