package scidata_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"lwfs/internal/cluster"
	"lwfs/internal/core"
	"lwfs/internal/naming"
	"lwfs/internal/netsim"
	"lwfs/internal/scidata"
	"lwfs/internal/sim"
	"lwfs/internal/trace"
)

type rig struct {
	cl *cluster.Cluster
	c  *core.Client
}

func boot(t *testing.T, fn func(r *rig, p *sim.Proc)) *rig {
	if t != nil {
		t.Helper()
	}
	spec := cluster.DevCluster().WithServers(4)
	spec.ComputeNodes = 2
	cl := cluster.New(spec)
	cl.RegisterUser("sci", "pw")
	l := cl.DeployLWFS()
	r := &rig{cl: cl, c: cl.NewClient(l, 0)}
	cl.Spawn("main", func(p *sim.Proc) {
		if err := r.c.Login(p, "sci", "pw"); err != nil {
			panic(err)
		}
		fn(r, p)
	})
	return r
}

func run(t *testing.T, r *rig) {
	t.Helper()
	if err := r.cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// floatBytes encodes a float64 slice row-major.
func floatBytes(xs []float64) []byte {
	out := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

func TestDatasetRoundTrip2D(t *testing.T) {
	r := boot(t, func(r *rig, p *sim.Proc) {
		f, err := scidata.Create(p, r.c, "/sim-output")
		if err != nil {
			t.Errorf("create file: %v", err)
			return
		}
		ds, err := f.CreateDataset(p, "temperature", scidata.Float64, []int64{16, 8}, scidata.Options{})
		if err != nil {
			t.Errorf("create dataset: %v", err)
			return
		}
		if ds.NumChunks() != 4 {
			t.Errorf("chunks = %d, want 4 (one per server)", ds.NumChunks())
		}
		// Write the whole array.
		vals := make([]float64, 16*8)
		for i := range vals {
			vals[i] = float64(i) * 0.5
		}
		if err := ds.WriteSlab(p, []int64{0, 0}, []int64{16, 8}, netsim.BytesPayload(floatBytes(vals))); err != nil {
			t.Errorf("write slab: %v", err)
			return
		}
		// Read a sub-slab crossing chunk boundaries: rows 2..12, cols 3..6.
		got, err := ds.ReadSlab(p, []int64{2, 3}, []int64{10, 3})
		if err != nil {
			t.Errorf("read slab: %v", err)
			return
		}
		want := make([]float64, 0, 30)
		for row := int64(2); row < 12; row++ {
			for col := int64(3); col < 6; col++ {
				want = append(want, vals[row*8+col])
			}
		}
		if !bytes.Equal(got.Data, floatBytes(want)) {
			t.Error("sub-slab mismatch")
		}
	})
	run(t, r)
}

// A slab written as one seeded run reads back as that run wherever the
// slab is contiguous in the dataset, across chunks; a slab of partial rows
// reads back as the same bytes, copied.
func TestSeededSlabReadsBackAsItsRun(t *testing.T) {
	const seed = 77
	r := boot(t, func(r *rig, p *sim.Proc) {
		f, err := scidata.Create(p, r.c, "/seeded")
		if err != nil {
			t.Errorf("create file: %v", err)
			return
		}
		ds, err := f.CreateDataset(p, "field", scidata.Float64, []int64{16, 8}, scidata.Options{})
		if err != nil {
			t.Errorf("create dataset: %v", err)
			return
		}
		want := trace.DataFor(seed, 16*8*8)
		if err := ds.WriteSlab(p, []int64{0, 0}, []int64{16, 8}, netsim.SeededPayload(seed, 16*8*8)); err != nil {
			t.Errorf("write slab: %v", err)
			return
		}
		rows, err := ds.ReadSlab(p, []int64{2, 0}, []int64{10, 8}) // rows 2..12: three chunks
		if err != nil {
			t.Errorf("read rows: %v", err)
			return
		}
		if !rows.Seeded() || !bytes.Equal(rows.Bytes(), want[2*64:12*64]) {
			t.Errorf("full rows 2..12: seeded %v, bytes match %v; want the seed's run", rows.Seeded(), bytes.Equal(rows.Bytes(), want[2*64:12*64]))
		}
		cols, err := ds.ReadSlab(p, []int64{2, 3}, []int64{10, 3})
		if err != nil {
			t.Errorf("read sub-slab: %v", err)
			return
		}
		var sub []byte
		for row := 2; row < 12; row++ {
			sub = append(sub, want[row*64+3*8:row*64+6*8]...)
		}
		if cols.Seeded() || !bytes.Equal(cols.Data, sub) {
			t.Errorf("sub-slab: seeded %v, bytes match %v; want a copy of the seed's bytes", cols.Seeded(), bytes.Equal(cols.Data, sub))
		}
	})
	run(t, r)
}

func TestOpenDatasetFromHeader(t *testing.T) {
	r := boot(t, func(r *rig, p *sim.Proc) {
		f, _ := scidata.Create(p, r.c, "/f")
		ds, err := f.CreateDataset(p, "grid", scidata.Int32, []int64{10, 4, 4}, scidata.Options{ChunkRows: 3})
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if err := ds.SetAttr(p, "units", "kelvin"); err != nil {
			t.Errorf("attr: %v", err)
			return
		}
		data := make([]byte, 10*4*4*4)
		for i := range data {
			data[i] = byte(i * 7)
		}
		if err := ds.WriteSlab(p, []int64{0, 0, 0}, []int64{10, 4, 4}, netsim.BytesPayload(data)); err != nil {
			t.Errorf("write: %v", err)
			return
		}

		// Reopen purely from the named header.
		ds2, err := f.OpenDataset(p, "grid")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if ds2.Type != scidata.Int32 || !reflect.DeepEqual(ds2.Dims, []int64{10, 4, 4}) || ds2.NumChunks() != 4 {
			t.Errorf("reopened: %+v", ds2)
			return
		}
		if u, err := ds2.GetAttr(p, "units"); err != nil || u != "kelvin" {
			t.Errorf("units = %q, %v", u, err)
		}
		got, err := ds2.ReadSlab(p, []int64{0, 0, 0}, []int64{10, 4, 4})
		if err != nil || !bytes.Equal(got.Data, data) {
			t.Errorf("full read through reopened dataset: %v", err)
		}
	})
	run(t, r)
}

func TestDatasetsListing(t *testing.T) {
	r := boot(t, func(r *rig, p *sim.Proc) {
		f, _ := scidata.Create(p, r.c, "/multi")
		f.CreateDataset(p, "b", scidata.Uint8, []int64{4}, scidata.Options{})
		f.CreateDataset(p, "a", scidata.Uint8, []int64{4}, scidata.Options{})
		names, err := f.Datasets(p)
		if err != nil || !reflect.DeepEqual(names, []string{"a", "b"}) {
			t.Errorf("datasets = %v, %v", names, err)
		}
	})
	run(t, r)
}

func TestBadInputs(t *testing.T) {
	r := boot(t, func(r *rig, p *sim.Proc) {
		f, _ := scidata.Create(p, r.c, "/bad")
		if _, err := f.CreateDataset(p, "x", "complex128", []int64{4}, scidata.Options{}); !errors.Is(err, scidata.ErrBadDtype) {
			t.Errorf("bad dtype: %v", err)
		}
		if _, err := f.CreateDataset(p, "x", scidata.Uint8, []int64{4, 0}, scidata.Options{}); !errors.Is(err, scidata.ErrBadDims) {
			t.Errorf("bad dims: %v", err)
		}
		ds, _ := f.CreateDataset(p, "ok", scidata.Uint8, []int64{8, 8}, scidata.Options{})
		if err := ds.WriteSlab(p, []int64{4, 0}, []int64{8, 8}, netsim.SyntheticPayload(64)); !errors.Is(err, scidata.ErrBadSlab) {
			t.Errorf("oob slab: %v", err)
		}
		if err := ds.WriteSlab(p, []int64{0, 0}, []int64{2, 2}, netsim.SyntheticPayload(999)); !errors.Is(err, scidata.ErrSizeMismatch) {
			t.Errorf("size mismatch: %v", err)
		}
		if _, err := ds.ReadSlab(p, []int64{0}, []int64{8}); !errors.Is(err, scidata.ErrBadSlab) {
			t.Errorf("rank mismatch: %v", err)
		}
		if _, err := f.OpenDataset(p, "."); !errors.Is(err, naming.ErrIsDir) {
			t.Errorf("dataset naming the file's own directory: %v", err)
		}
	})
	run(t, r)
}

func TestRank1Dataset(t *testing.T) {
	r := boot(t, func(r *rig, p *sim.Proc) {
		f, _ := scidata.Create(p, r.c, "/vec")
		ds, err := f.CreateDataset(p, "v", scidata.Uint8, []int64{100}, scidata.Options{ChunkRows: 30})
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		data := make([]byte, 100)
		for i := range data {
			data[i] = byte(i)
		}
		if err := ds.WriteSlab(p, []int64{0}, []int64{100}, netsim.BytesPayload(data)); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		got, err := ds.ReadSlab(p, []int64{25}, []int64{50})
		if err != nil || !bytes.Equal(got.Data, data[25:75]) {
			t.Errorf("vector slab: %v", err)
		}
	})
	run(t, r)
}

// Property: random hyperslab writes followed by full reads match a flat
// model array.
func TestHyperslabModelProperty(t *testing.T) {
	prop := func(seed int64) bool {
		ok := true
		r := boot(nil, func(r *rig, p *sim.Proc) {
			rng := rand.New(rand.NewSource(seed))
			dims := []int64{int64(rng.Intn(6) + 2), int64(rng.Intn(5) + 1), int64(rng.Intn(4) + 1)}
			f, err := scidata.Create(p, r.c, "/prop")
			if err != nil {
				ok = false
				return
			}
			ds, err := f.CreateDataset(p, "d", scidata.Uint8, dims, scidata.Options{ChunkRows: int64(rng.Intn(3) + 1)})
			if err != nil {
				ok = false
				return
			}
			total := dims[0] * dims[1] * dims[2]
			model := make([]byte, total)
			for iter := 0; iter < 6; iter++ {
				start := make([]int64, 3)
				count := make([]int64, 3)
				for i := range dims {
					start[i] = int64(rng.Intn(int(dims[i])))
					count[i] = int64(rng.Intn(int(dims[i]-start[i]))) + 1
				}
				n := count[0] * count[1] * count[2]
				data := make([]byte, n)
				rng.Read(data)
				if err := ds.WriteSlab(p, start, count, netsim.BytesPayload(data)); err != nil {
					ok = false
					return
				}
				// Apply to the model.
				di := 0
				for x := start[0]; x < start[0]+count[0]; x++ {
					for y := start[1]; y < start[1]+count[1]; y++ {
						for z := start[2]; z < start[2]+count[2]; z++ {
							model[x*dims[1]*dims[2]+y*dims[2]+z] = data[di]
							di++
						}
					}
				}
			}
			got, err := ds.ReadSlab(p, []int64{0, 0, 0}, dims)
			if err != nil {
				ok = false
				return
			}
			for i := range model {
				var have byte
				if got.Data != nil {
					have = got.Data[i]
				}
				if have != model[i] {
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
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
