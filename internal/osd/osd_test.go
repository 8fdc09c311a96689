package osd

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"lwfs/internal/netsim"
	"lwfs/internal/sim"
	"lwfs/internal/trace"
)

const mb = 1 << 20

func testParams() DiskParams {
	return DiskParams{
		BandwidthBps:  100 * mb,
		PerOpOverhead: 100 * time.Microsecond,
		CreateCost:    250 * time.Microsecond,
		RemoveCost:    250 * time.Microsecond,
		SyncCost:      500 * time.Microsecond,
	}
}

// run executes fn as a simulated process and drains the kernel.
func run(t *testing.T, fn func(p *sim.Proc, d *Device)) *Device {
	t.Helper()
	k := sim.NewKernel()
	d := NewDevice(k, "osd0", testParams())
	k.Spawn("test", func(p *sim.Proc) { fn(p, d) })
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	run(t, func(p *sim.Proc, d *Device) {
		obj := d.Create(p, 1)
		if err := d.Write(p, obj.ID, 0, netsim.BytesPayload([]byte("hello world"))); err != nil {
			t.Fatal(err)
		}
		got, err := d.Read(p, obj.ID, 0, 11)
		if err != nil {
			t.Fatal(err)
		}
		if string(got.Data) != "hello world" {
			t.Fatalf("read %q", got.Data)
		}
	})
}

// Device.Write stores a seeded payload as its run, without bytes, and
// copies real bytes; so does Device.Append, so a journal's caller may reuse
// its buffer.
func TestDeviceStoresSeededRunsAndCopiesBytes(t *testing.T) {
	run(t, func(p *sim.Proc, d *Device) {
		obj := d.Create(p, 1)
		if err := d.Write(p, obj.ID, 0, netsim.SeededPayload(9, 64)); err != nil {
			t.Fatal(err)
		}
		if x := obj.Data.extents[0]; !x.pl.Seeded() || x.pl.Data != nil {
			t.Fatal("Write stored a seeded payload's bytes")
		}
		rec := []byte("a journal record")
		if err := d.Append(p, obj.ID, 64, netsim.BytesPayload(rec)); err != nil {
			t.Fatal(err)
		}
		copy(rec, "XXXXXXXXXXXXXXXX")
		got, err := d.Read(p, obj.ID, 64, int64(len(rec)))
		if err != nil {
			t.Fatal(err)
		}
		if string(got.Data) != "a journal record" {
			t.Fatalf("Append kept the caller's buffer: read %q", got.Data)
		}
		run, err := d.Read(p, obj.ID, 8, 40)
		if err != nil {
			t.Fatal(err)
		}
		if want := trace.DataFor(9, 48)[8:]; !run.Seeded() || !bytes.Equal(run.Bytes(), want) {
			t.Fatalf("a read inside the seeded write: seeded %v, bytes %x, want %x", run.Seeded(), run.Bytes(), want)
		}
	})
}

func TestReadBeyondEOFTruncates(t *testing.T) {
	run(t, func(p *sim.Proc, d *Device) {
		obj := d.Create(p, 1)
		if err := d.Write(p, obj.ID, 0, netsim.BytesPayload([]byte("abc"))); err != nil {
			t.Fatal(err)
		}
		got, err := d.Read(p, obj.ID, 1, 100)
		if err != nil {
			t.Fatal(err)
		}
		if string(got.Data) != "bc" {
			t.Fatalf("read %q", got.Data)
		}
		eof, err := d.Read(p, obj.ID, 10, 5)
		if err != nil || eof.Size != 0 {
			t.Fatalf("eof read: %v %+v", err, eof)
		}
	})
}

func TestSparseHolesZeroFill(t *testing.T) {
	run(t, func(p *sim.Proc, d *Device) {
		obj := d.Create(p, 1)
		if err := d.Write(p, obj.ID, 4, netsim.BytesPayload([]byte("xy"))); err != nil {
			t.Fatal(err)
		}
		got, err := d.Read(p, obj.ID, 0, 6)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Data, []byte{0, 0, 0, 0, 'x', 'y'}) {
			t.Fatalf("read %v", got.Data)
		}
	})
}

func TestSyntheticWriteExtendsSizeOnly(t *testing.T) {
	run(t, func(p *sim.Proc, d *Device) {
		obj := d.Create(p, 1)
		if err := d.Write(p, obj.ID, 0, netsim.SyntheticPayload(512*mb)); err != nil {
			t.Fatal(err)
		}
		st, err := d.Stat(obj.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size != 512*mb {
			t.Fatalf("size = %d", st.Size)
		}
		got, err := d.Read(p, obj.ID, 0, 4*mb)
		if err != nil || got.Data != nil || got.Size != 4*mb {
			t.Fatalf("read %+v err %v", got, err)
		}
	})
}

func TestWriteTimingMatchesBandwidth(t *testing.T) {
	k := sim.NewKernel()
	d := NewDevice(k, "osd0", testParams())
	var elapsed time.Duration
	k.Spawn("w", func(p *sim.Proc) {
		obj := d.Create(p, 1)
		start := p.Now()
		if err := d.Write(p, obj.ID, 0, netsim.SyntheticPayload(100*mb)); err != nil {
			t.Error(err)
		}
		elapsed = p.Now().Sub(start)
	})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	want := time.Second + 100*time.Microsecond
	if elapsed != want {
		t.Fatalf("write took %v, want %v", elapsed, want)
	}
}

func TestDiskSerializesConcurrentWriters(t *testing.T) {
	k := sim.NewKernel()
	d := NewDevice(k, "osd0", testParams())
	var obj *Object
	k.Spawn("setup", func(p *sim.Proc) { obj = d.Create(p, 1) })
	var latest sim.Time
	for i := 0; i < 4; i++ {
		k.SpawnAt(sim.Time(time.Millisecond), "w", func(p *sim.Proc) {
			if err := d.Write(p, obj.ID, 0, netsim.SyntheticPayload(25*mb)); err != nil {
				t.Error(err)
			}
			if p.Now() > latest {
				latest = p.Now()
			}
		})
	}
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	// 4 x 0.25s serialized on one disk.
	if latest < sim.Time(time.Second) {
		t.Fatalf("writers overlapped on one disk: finished at %v", latest)
	}
}

func TestRemove(t *testing.T) {
	run(t, func(p *sim.Proc, d *Device) {
		obj := d.Create(p, 1)
		if err := d.Remove(p, obj.ID); err != nil {
			t.Fatal(err)
		}
		if err := d.Remove(p, obj.ID); !errors.Is(err, ErrNoObject) {
			t.Fatalf("double remove: %v", err)
		}
		if _, err := d.Read(p, obj.ID, 0, 1); !errors.Is(err, ErrNoObject) {
			t.Fatalf("read after remove: %v", err)
		}
	})
}

// A write that passed its existence check and then queued on the disk behind
// a remove and a re-create of the same ID must land in the live object, not
// in the orphan it saw before the wait.
func TestWriteQueuedAcrossRecreateLandsInLiveObject(t *testing.T) {
	k := sim.NewKernel()
	d := NewDevice(k, "osd0", testParams())
	const id = 50
	k.Spawn("setup", func(p *sim.Proc) {
		if _, err := d.CreateWithID(p, id, 1); err != nil {
			t.Error(err)
		}
	})
	at := sim.Time(time.Millisecond)
	k.SpawnAt(at, "remove", func(p *sim.Proc) {
		if err := d.Remove(p, id); err != nil {
			t.Error(err)
		}
	})
	k.SpawnAt(at, "recreate", func(p *sim.Proc) {
		if _, err := d.CreateWithID(p, id, 2); err != nil {
			t.Error(err)
		}
	})
	k.SpawnAt(at, "write", func(p *sim.Proc) {
		if err := d.Write(p, id, 0, netsim.BytesPayload([]byte("live"))); err != nil {
			t.Error(err)
		}
		got, err := d.Read(p, id, 0, 4)
		if err != nil || string(got.Data) != "live" {
			t.Errorf("read back %q, %v", got.Data, err)
		}
	})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if obj, err := d.Lookup(id); err != nil || obj.Container != 2 || obj.Data.Size() != 4 {
		t.Fatalf("live object: %+v, %v", obj, err)
	}
}

func TestCreateWithID(t *testing.T) {
	run(t, func(p *sim.Proc, d *Device) {
		if _, err := d.CreateWithID(p, 100, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := d.CreateWithID(p, 100, 1); !errors.Is(err, ErrExists) {
			t.Fatalf("dup create: %v", err)
		}
		// Fresh Create must not collide with the chosen ID space.
		obj := d.Create(p, 1)
		if obj.ID == 100 {
			t.Fatal("ID collision")
		}
	})
}

// Attributes round-trip on objects from both create paths, and one never set
// reads as "" (an object holds no attribute map until its first SetAttr).
func TestAttrs(t *testing.T) {
	run(t, func(p *sim.Proc, d *Device) {
		byID, err := d.CreateWithID(p, 100, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, obj := range []*Object{d.Create(p, 1), byID} {
			if v, err := d.GetAttr(obj.ID, "kind"); err != nil || v != "" {
				t.Fatalf("object %d: unset attr = %q, %v, want \"\"", obj.ID, v, err)
			}
			if err := d.SetAttr(p, obj.ID, "kind", "checkpoint-md"); err != nil {
				t.Fatal(err)
			}
			if v, err := d.GetAttr(obj.ID, "kind"); err != nil || v != "checkpoint-md" {
				t.Fatalf("object %d: attr = %q, %v", obj.ID, v, err)
			}
			if v, err := d.GetAttr(obj.ID, "other"); err != nil || v != "" {
				t.Fatalf("object %d: unset attr beside a set one = %q, %v", obj.ID, v, err)
			}
		}
	})
}

func TestListContainer(t *testing.T) {
	run(t, func(p *sim.Proc, d *Device) {
		a := d.Create(p, 1)
		d.Create(p, 2)
		c := d.Create(p, 1)
		got := d.ListContainer(1)
		want := []ObjectID{a.ID, c.ID}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("list = %v want %v", got, want)
		}
	})
}

func TestStatNoObject(t *testing.T) {
	run(t, func(p *sim.Proc, d *Device) {
		if _, err := d.Stat(999); !errors.Is(err, ErrNoObject) {
			t.Fatalf("stat: %v", err)
		}
	})
}

func TestSyncWaitsForQueuedIO(t *testing.T) {
	k := sim.NewKernel()
	d := NewDevice(k, "osd0", testParams())
	var syncDone sim.Time
	k.Spawn("w", func(p *sim.Proc) {
		obj := d.Create(p, 1)
		// Queue a big write asynchronously via a second process, then sync.
		k.Spawn("bg", func(q *sim.Proc) {
			if err := d.Write(q, obj.ID, 0, netsim.SyntheticPayload(100*mb)); err != nil {
				t.Error(err)
			}
		})
		p.Sleep(time.Millisecond) // let the write enter the disk queue
		d.Sync(p)
		syncDone = p.Now()
	})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if syncDone < sim.Time(time.Second) {
		t.Fatalf("sync returned before queued write finished: %v", syncDone)
	}
}

func TestCounters(t *testing.T) {
	d := run(t, func(p *sim.Proc, d *Device) {
		obj := d.Create(p, 1)
		d.Write(p, obj.ID, 0, netsim.SyntheticPayload(1000))
		d.Read(p, obj.ID, 0, 400)
		d.Remove(p, obj.ID)
	})
	creates, removes, reads, writes, br, bw := d.Counters()
	if creates != 1 || removes != 1 || reads != 1 || writes != 1 || br != 400 || bw != 1000 {
		t.Fatalf("counters: %d %d %d %d %d %d", creates, removes, reads, writes, br, bw)
	}
}

// Property: Blob.Write/Read agree with a naive byte-map model under
// arbitrary overlapping write schedules.
func TestBlobMatchesNaiveModel(t *testing.T) {
	type op struct {
		Off  uint16
		Data []byte
	}
	prop := func(ops []op, readOff, readLen uint16) bool {
		var b Blob
		model := map[int64]byte{}
		var maxEnd int64
		for _, o := range ops {
			if len(o.Data) > 256 {
				o.Data = o.Data[:256]
			}
			off := int64(o.Off % 1024)
			b.Write(off, netsim.BytesPayload(o.Data))
			checkInvariant(t, &b)
			for i, c := range o.Data {
				model[off+int64(i)] = c
			}
			if end := off + int64(len(o.Data)); end > maxEnd {
				maxEnd = end
			}
		}
		if b.Size() != maxEnd {
			return false
		}
		off := int64(readOff % 1100)
		length := int64(readLen % 512)
		got := b.Read(off, length)
		if len(ops) == 0 {
			return got.Size == length
		}
		if got.Size != length {
			return false
		}
		for i := int64(0); i < length; i++ {
			want := model[off+i] // zero for holes
			var have byte
			if got.Data != nil {
				have = got.Data[i]
			}
			if have != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Truncate discards data past the cut and preserves data before it.
func TestBlobTruncateProperty(t *testing.T) {
	prop := func(seed int64, cut uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		var b Blob
		model := map[int64]byte{}
		for i := 0; i < 10; i++ {
			off := int64(rng.Intn(500))
			data := make([]byte, rng.Intn(100)+1)
			rng.Read(data)
			b.Write(off, netsim.BytesPayload(data))
			checkInvariant(t, &b)
			for j, c := range data {
				model[off+int64(j)] = c
			}
		}
		c := int64(cut % 700)
		b.Truncate(c)
		checkInvariant(t, &b)
		if b.Size() != c {
			return false
		}
		got := b.Read(0, c)
		for i := int64(0); i < c; i++ {
			var have byte
			if got.Data != nil {
				have = got.Data[i]
			}
			if have != model[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: device read-after-write returns exactly the last write at every
// offset, across random object schedules.
func TestDeviceReadAfterWriteProperty(t *testing.T) {
	prop := func(seed int64) bool {
		k := sim.NewKernel()
		d := NewDevice(k, "osd", testParams())
		rng := rand.New(rand.NewSource(seed))
		ok := true
		k.Spawn("t", func(p *sim.Proc) {
			obj := d.Create(p, 7)
			model := map[int64]byte{}
			for i := 0; i < 8; i++ {
				off := int64(rng.Intn(256))
				data := make([]byte, rng.Intn(64)+1)
				rng.Read(data)
				if err := d.Write(p, obj.ID, off, netsim.BytesPayload(data)); err != nil {
					ok = false
					return
				}
				for j, c := range data {
					model[off+int64(j)] = c
				}
			}
			st, _ := d.Stat(obj.ID)
			got, err := d.Read(p, obj.ID, 0, st.Size)
			if err != nil {
				ok = false
				return
			}
			for i := int64(0); i < st.Size; i++ {
				if got.Data[i] != model[i] {
					ok = false
					return
				}
			}
		})
		if err := k.Run(sim.MaxTime); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
