// Climate: the scientific-data library (internal/scidata — the "HDF-5"
// layer of the paper's Figure 2) running directly on the LWFS core. A
// simulation writes a 3-D temperature field timestep by timestep; an
// analysis process later opens the dataset by name, reads the metadata it
// needs, and extracts hyperslabs — a time series at one grid point and one
// full timestep — without a parallel file system anywhere in the stack.
//
//	go run ./examples/climate
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"math"

	"lwfs"
	"lwfs/internal/scidata"
	"lwfs/internal/sim"
	"lwfs/internal/trace"
)

const (
	steps = 24 // timesteps (dimension 0)
	ny    = 32 // grid rows
	nx    = 32 // grid cols
)

func main() {
	traceOut := flag.String("trace", "", "record the model/analyst I/O as a replayable trace at this path")
	flag.Parse()
	if err := run(*traceOut); err != nil {
		log.Fatal(err)
	}
}

// run runs the model and the analyst; with traceOut set, it also writes
// the recorded I/O there as a trace file.
func run(traceOut string) error {
	spec := lwfs.DevCluster()
	spec.ComputeNodes = 2
	spec = spec.WithServers(4)
	cl := lwfs.NewCluster(spec)
	cl.RegisterUser("model", "pw")
	cl.RegisterUser("analyst", "pw")
	sys := cl.DeployLWFS()
	model := cl.NewClient(sys, 0)
	analyst := cl.NewClient(sys, 1)

	share := sim.NewMailbox(cl.K, "share")

	// With -trace, the run is also recorded against the dataset's logical
	// file: the model's timestep writes carry content seeds (the replayed
	// bytes regenerate from the seed, not the trace), the analyst's
	// hyperslab reads become strided ReadAt calls. Two streams: model (0)
	// and analyst (1).
	var rec *trace.Recorder
	if traceOut != "" {
		rec = trace.NewRecorder()
	}
	const dsPath = "/runs/temperature.dat"
	recOp := func(p *lwfs.Proc, stream int, op trace.Op, off, n int64, seed uint64) {
		if rec == nil {
			return
		}
		rec.Add(trace.Event{T: p.Now(), Stream: stream, Op: op, Path: dsPath, Off: off, Len: n, Seed: seed})
	}

	cl.Spawn("model", func(p *lwfs.Proc) {
		if err := model.Login(p, "model", "pw"); err != nil {
			log.Fatal(err)
		}
		f, err := scidata.Create(p, model, "/runs/exp42")
		if err != nil {
			log.Fatal(err)
		}
		ds, err := f.CreateDataset(p, "temperature", scidata.Float64,
			[]int64{steps, ny, nx}, scidata.Options{ChunkRows: 6})
		if err != nil {
			log.Fatal(err)
		}
		ds.SetAttr(p, "units", "kelvin")
		ds.SetAttr(p, "model", "toy-advection-v1")
		fmt.Printf("model: dataset temperature[%d,%d,%d] float64 over %d chunks\n",
			steps, ny, nx, ds.NumChunks())
		if rec != nil {
			rec.Add(trace.Event{T: p.Now(), Op: trace.OpMkdir, Path: "/runs"})
		}
		recOp(p, 0, trace.OpCreate, 0, 0, 0)

		// One timestep at a time, like a real model's output phase.
		for ts := int64(0); ts < steps; ts++ {
			field := make([]byte, ny*nx*8)
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					v := 273.15 + 15*math.Sin(float64(ts)/4+float64(x)/8) + float64(y)/10
					binary.LittleEndian.PutUint64(field[(y*nx+x)*8:], math.Float64bits(v))
				}
			}
			if err := ds.WriteSlab(p, []int64{ts, 0, 0}, []int64{1, ny, nx}, lwfs.Bytes(field)); err != nil {
				log.Fatal(err)
			}
			recOp(p, 0, trace.OpWrite, ts*ny*nx*8, ny*nx*8, trace.SeedOf(field))
		}
		recOp(p, 0, trace.OpSync, 0, 0, 0)
		recOp(p, 0, trace.OpClose, 0, 0, 0)
		fmt.Printf("model: wrote %d timesteps (%d KB) at virtual time %v\n",
			steps, steps*ny*nx*8/1024, p.Now())

		// Grant the analyst read access; hand over the container.
		for _, op := range []lwfs.Op{lwfs.OpRead, lwfs.OpList} {
			if err := model.SetACL(p, f.Container(), op, "analyst", true); err != nil {
				log.Fatal(err)
			}
		}
		share.Send(f.Container())
	})

	cl.Spawn("analyst", func(p *lwfs.Proc) {
		cid := share.Recv(p).(lwfs.ContainerID)
		if err := analyst.Login(p, "analyst", "pw"); err != nil {
			log.Fatal(err)
		}
		f, err := scidata.Open(p, analyst, "/runs/exp42", cid)
		if err != nil {
			log.Fatal(err)
		}
		names, _ := f.Datasets(p)
		fmt.Printf("analyst: datasets in /runs/exp42: %v\n", names)
		ds, err := f.OpenDataset(p, "temperature")
		if err != nil {
			log.Fatal(err)
		}
		units, _ := ds.GetAttr(p, "units")
		fmt.Printf("analyst: temperature%v (%s)\n", ds.Dims, units)

		// Hyperslab 1: the full time series at grid point (7, 21).
		recOp(p, 1, trace.OpOpen, 0, 0, 0)
		series, err := ds.ReadSlab(p, []int64{0, 7, 21}, []int64{steps, 1, 1})
		if err != nil {
			log.Fatal(err)
		}
		for ts := int64(0); ts < steps; ts++ {
			recOp(p, 1, trace.OpRead, ts*ny*nx*8+(7*nx+21)*8, 8, 0)
		}
		first := math.Float64frombits(binary.LittleEndian.Uint64(series.Data))
		last := math.Float64frombits(binary.LittleEndian.Uint64(series.Data[(steps-1)*8:]))
		fmt.Printf("analyst: T(7,21) over %d steps: %.2f K -> %.2f K\n", steps, first, last)

		// Hyperslab 2: one full timestep (a map for plotting).
		ts12, err := ds.ReadSlab(p, []int64{12, 0, 0}, []int64{1, ny, nx})
		if err != nil {
			log.Fatal(err)
		}
		recOp(p, 1, trace.OpRead, 12*ny*nx*8, ny*nx*8, 0)
		recOp(p, 1, trace.OpClose, 0, 0, 0)
		var sum float64
		for i := 0; i < ny*nx; i++ {
			sum += math.Float64frombits(binary.LittleEndian.Uint64(ts12.Data[i*8:]))
		}
		fmt.Printf("analyst: mean T at step 12 = %.2f K\n", sum/float64(ny*nx))
		fmt.Println("\nno PFS in this stack: dataset -> objects + one name, straight on the LWFS core (Figure 2).")
	})

	if err := cl.Run(); err != nil {
		return err
	}

	if rec != nil {
		if err := rec.WriteFile(traceOut); err != nil {
			return err
		}
		fmt.Printf("recorded %d I/O events to %s\n", rec.Len(), traceOut)
	}
	return nil
}
