// Jacobi: a complete MPI-style application running on the simulated MPP —
// the kind of code the paper's stack exists for (§1: "the need to support
// MPI style programs on a space-shared system"). Eight ranks relax a 1-D
// heat equation with halo exchange (internal/mpi point-to-point), check
// convergence with Allreduce, and checkpoint through the Figure 8 pattern
// every few hundred iterations: per-rank objects inside one distributed
// transaction, a metadata gather, one naming entry.
//
// Halfway through, the job "crashes". A fresh set of processes resolves
// the last checkpoint by name, restores every rank's strip, and carries
// the solve to convergence — the restart path the paper's case study
// motivates.
//
//	go run ./examples/jacobi
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"math"

	"lwfs"
	"lwfs/internal/checkpoint"
	"lwfs/internal/mpi"
	"lwfs/internal/portals"
	"lwfs/internal/trace"
)

const (
	ranks     = 8
	stripLen  = 1024 // cells per rank
	ckptEvery = 300  // iterations between checkpoints
	crashAt   = 700  // the first job dies here
	stopAt    = 1200 // the restarted job's budget
	tolerance = 1e-9 // (Jacobi convergence takes far longer; budget wins)
)

func main() {
	traceOut := flag.String("trace", "", "record the checkpoint/restart I/O as a replayable trace at this path")
	flag.Parse()
	if err := run(*traceOut); err != nil {
		log.Fatal(err)
	}
}

// run runs the solve, its crash and its restart; with traceOut set, it
// also writes the recorded I/O there as a trace file.
func run(traceOut string) error {
	spec := lwfs.DevCluster()
	spec.ComputeNodes = 4 // 8 ranks on 4 nodes
	spec = spec.WithServers(4)
	cl := lwfs.NewCluster(spec)
	cl.RegisterUser("solver", "pw")
	sys := cl.DeployLWFS()

	var rec *trace.Recorder
	if traceOut != "" {
		rec = trace.NewRecorder()
	}

	clients := make([]*lwfs.Client, ranks)
	for i := range clients {
		clients[i] = cl.NewClient(sys, i)
	}

	// ---- phase 1: solve until the crash, checkpointing as we go ----
	fmt.Printf("jacobi: %d ranks x %d cells; checkpoint every %d iters; crash at iter %d\n",
		ranks, stripLen, ckptEvery, crashAt)
	var lastCkpt string
	phase1 := newJob(cl, clients, 1)
	phase1.rec = rec
	phase1.run(0, crashAt, func(iter int, path string) { lastCkpt = path })
	if err := cl.Run(); err != nil {
		return err
	}
	fmt.Printf("job 1: \"crashed\" at iteration %d; last checkpoint: %s\n", crashAt, lastCkpt)

	// ---- phase 2: a fresh job (new processes, new communicator) restores
	// from the last durable checkpoint and carries on ----
	phase2 := newJob(cl, clients, 2)
	phase2.rec = rec
	phase2.restoreFrom = lastCkpt
	phase2.container = phase1.caps.Container // job metadata, like a scratch dir
	phase2.run(crashAt-crashAt%ckptEvery, stopAt, nil)
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

// job owns one solve attempt across all ranks.
type job struct {
	cl      *lwfs.Cluster
	clients []*lwfs.Client
	comm    *mpi.Comm

	restoreFrom string
	container   lwfs.ContainerID
	caps        lwfs.CapSet
	gen         int

	// rec, when set, records each rank's checkpoint/restart I/O as trace
	// events (one stream per rank) for internal/trace's replayer. The
	// recorded paths name the logical per-rank dump files of the Figure 8
	// pattern; replayed against a POSIX-facade mount they become real files.
	rec *trace.Recorder
}

// recOp appends one per-rank trace event at the current virtual time.
func (j *job) recOp(p *lwfs.Proc, id int, op trace.Op, path string, off, n int64, seed uint64) {
	if j.rec == nil {
		return
	}
	j.rec.Add(trace.Event{T: p.Now(), Stream: id, Op: op, Path: path, Off: off, Len: n, Seed: seed})
}

func newJob(cl *lwfs.Cluster, clients []*lwfs.Client, gen int) *job {
	eps := make([]*portals.Endpoint, len(clients))
	for i, c := range clients {
		eps[i] = c.Endpoint()
	}
	return &job{cl: cl, clients: clients, comm: mpi.New(eps), gen: gen}
}

// run spawns the rank processes. onCkpt (rank 0 only) observes checkpoints.
func (j *job) run(startIter, stopIter int, onCkpt func(iter int, path string)) {
	for i := 0; i < ranks; i++ {
		i := i
		j.cl.Spawn(fmt.Sprintf("job%d-rank%d", j.gen, i), func(p *lwfs.Proc) {
			j.rankMain(p, i, startIter, stopIter, onCkpt)
		})
	}
}

func (j *job) rankMain(p *lwfs.Proc, id, startIter, stopIter int, onCkpt func(int, string)) {
	c := j.clients[id]
	rank := j.comm.Rank(id)

	// Rank 0 authenticates, makes the container, shares credential + caps
	// through a broadcast (Figure 4a's scatter, via the mpi layer).
	type setup struct {
		Cred lwfs.Credential
		Caps lwfs.CapSet
	}
	if id == 0 {
		if err := c.Login(p, "solver", "pw"); err != nil {
			panic(err)
		}
		cid := j.container
		if cid == 0 {
			var err error
			cid, err = c.CreateContainer(p)
			if err != nil {
				panic(err)
			}
		}
		caps, err := c.GetCaps(p, cid, lwfs.AllOps...)
		if err != nil {
			panic(err)
		}
		rank.Bcast(p, 0, setup{Cred: c.Credential(), Caps: caps}, 512)
		j.caps = caps
	} else {
		s := rank.Bcast(p, 0, nil, 512).(setup)
		c.SetCredential(s.Cred)
		j.caps = s.Caps
	}
	caps := j.caps

	// Initialize or restore the strip.
	strip := make([]float64, stripLen)
	iter := startIter
	if j.restoreFrom == "" {
		for x := range strip {
			strip[x] = math.Sin(float64(id*stripLen+x) / 300)
		}
	} else {
		// Restart: rank 0 resolves the manifest and broadcasts it.
		var manifest lwfs.CheckpointManifest
		if id == 0 {
			mpath := j.restoreFrom + ".manifest"
			j.recOp(p, id, trace.OpOpen, mpath, 0, 0, 0)
			m, err := lwfs.RestoreCheckpoint(p, c, caps, j.restoreFrom)
			if err != nil {
				panic(err)
			}
			j.recOp(p, id, trace.OpRead, mpath, 0, int64(len(checkpoint.EncodeMetadata(m.Refs, m.BytesPerProc))), 0)
			j.recOp(p, id, trace.OpClose, mpath, 0, 0, 0)
			manifest = m
			fmt.Printf("job 2: restored manifest %s (%d ranks)\n", j.restoreFrom, m.Ranks)
		}
		manifest = rank.Bcast(p, 0, manifest, 1024).(lwfs.CheckpointManifest)
		strip0 := fmt.Sprintf("%s-rank%d.dat", j.restoreFrom, id)
		j.recOp(p, id, trace.OpOpen, strip0, 0, 0, 0)
		payload, err := c.Read(p, manifest.Refs[id], caps, 0, int64(stripLen*8))
		if err != nil {
			panic(err)
		}
		j.recOp(p, id, trace.OpRead, strip0, 0, int64(stripLen*8), 0)
		j.recOp(p, id, trace.OpClose, strip0, 0, 0, 0)
		for x := range strip {
			strip[x] = math.Float64frombits(binary.LittleEndian.Uint64(payload.Data[x*8:]))
		}
	}

	for ; iter < stopIter; iter++ {
		// Halo exchange with neighbors.
		var left, right float64
		if id > 0 {
			rank.Send(id-1, 1, strip[0], 64)
		}
		if id < ranks-1 {
			rank.Send(id+1, 2, strip[stripLen-1], 64)
		}
		if id < ranks-1 {
			v, _ := rank.Recv(p, id+1, 1)
			right = v.(float64)
		} else {
			right = 0
		}
		if id > 0 {
			v, _ := rank.Recv(p, id-1, 2)
			left = v.(float64)
		} else {
			left = 0
		}
		// Relaxation sweep.
		next := make([]float64, stripLen)
		var localResidual float64
		for x := 0; x < stripLen; x++ {
			l, r := left, right
			if x > 0 {
				l = strip[x-1]
			}
			if x < stripLen-1 {
				r = strip[x+1]
			}
			next[x] = (l + r) / 2
			localResidual += math.Abs(next[x] - strip[x])
		}
		strip = next

		// Global convergence check.
		if iter%100 == 99 {
			total := rank.Allreduce(p, localResidual, 64, func(a, b interface{}) interface{} {
				return a.(float64) + b.(float64)
			}).(float64)
			if id == 0 {
				fmt.Printf("job %d: iter %4d residual %.6f (virtual time %v)\n", j.gen, iter+1, total, p.Now())
			}
			if total < tolerance {
				if id == 0 {
					fmt.Printf("job %d: converged at iteration %d\n", j.gen, iter+1)
				}
				return
			}
		}

		// Periodic checkpoint: the Figure 8 pattern over the mpi layer.
		if iter%ckptEvery == ckptEvery-1 {
			path := fmt.Sprintf("/jacobi-step-%06d", iter+1)
			j.checkpointStrip(p, rank, c, caps, id, strip, path)
			if id == 0 {
				fmt.Printf("job %d: checkpointed %s\n", j.gen, path)
				if onCkpt != nil {
					onCkpt(iter+1, path)
				}
			}
		}
	}
}

// checkpointStrip is CHECKPOINT() from Figure 8: create object, dump
// state, gather metadata at rank 0, create the name, two-phase commit.
func (j *job) checkpointStrip(p *lwfs.Proc, rank *mpi.Rank, c *lwfs.Client,
	caps lwfs.CapSet, id int, strip []float64, path string) {
	// One transaction per checkpoint; rank 0 coordinates, the ID is shared
	// the way the capability set was.
	var tx *lwfs.Txn
	if id == 0 {
		tx = c.BeginTxn()
	}
	txp := rank.Bcast(p, 0, tx, 64).(*lwfs.Txn)

	strip0 := fmt.Sprintf("%s-rank%d.dat", path, id)
	j.recOp(p, id, trace.OpCreate, strip0, 0, 0, 0)
	ref, err := c.CreateObjectTxn(p, c.Server(id), caps, txp)
	if err != nil {
		panic(err)
	}
	buf := make([]byte, stripLen*8)
	for x, v := range strip {
		binary.LittleEndian.PutUint64(buf[x*8:], math.Float64bits(v))
	}
	if _, err := c.Write(p, ref, caps, 0, lwfs.Bytes(buf)); err != nil {
		panic(err)
	}
	j.recOp(p, id, trace.OpWrite, strip0, 0, int64(len(buf)), trace.SeedOf(buf))
	if err := c.Sync(p, lwfs.Target{Node: ref.Node, Port: ref.Port}, caps); err != nil {
		panic(err)
	}
	j.recOp(p, id, trace.OpSync, strip0, 0, 0, 0)
	j.recOp(p, id, trace.OpClose, strip0, 0, 0, 0)

	// Metadata gather to rank 0 (log-tree).
	gathered := rank.Gather(p, 0, ref, 64)
	if id == 0 {
		refs := make([]lwfs.ObjRef, ranks)
		for i, v := range gathered {
			refs[i] = v.(lwfs.ObjRef)
		}
		mdRef, err := c.CreateObjectTxn(p, c.Server(0), caps, txp)
		if err != nil {
			panic(err)
		}
		manifest := path + ".manifest"
		j.recOp(p, id, trace.OpCreate, manifest, 0, 0, 0)
		md := checkpoint.EncodeMetadata(refs, int64(stripLen*8))
		if _, err := c.Write(p, mdRef, caps, 0, lwfs.Bytes(md)); err != nil {
			panic(err)
		}
		j.recOp(p, id, trace.OpWrite, manifest, 0, int64(len(md)), trace.SeedOf(md))
		j.recOp(p, id, trace.OpClose, manifest, 0, 0, 0)
		if err := c.CreateName(p, path, mdRef, txp); err != nil {
			panic(err)
		}
		if err := txp.Commit(p); err != nil {
			panic(err)
		}
	}
	rank.Barrier(p) // no rank computes on state that isn't durable yet
}
