package checkpoint

import (
	"fmt"
	"io/fs"
	"math/rand"
	"time"

	"lwfs/internal/authz"
	"lwfs/internal/cluster"
	"lwfs/internal/core"
	"lwfs/internal/netsim"
	"lwfs/internal/pfs"
	"lwfs/internal/sim"
)

// RunPFSFilePerProcess builds a fresh cluster, deploys the baseline PFS and
// runs the one-file-per-process checkpoint: every process creates its own
// striped file through the centralized MDS, dumps, syncs and closes.
func RunPFSFilePerProcess(spec cluster.Spec, cfg Config) (Result, error) {
	cl := cluster.New(spec)
	defer cl.Close()
	return runPFS(cl, cfg, func(p *sim.Proc, c *pfs.Client, rank int) (*pfs.File, int64) {
		file, err := c.Create(p, fmt.Sprintf("/ckpt/rank-%d", rank), 0)
		if err != nil {
			rankFailed(rank, "create", err)
		}
		return file, 0
	})
}

// RunPFSShared builds a fresh cluster, deploys the baseline PFS and runs
// the shared-file checkpoint: one striped file, every process writing its
// non-overlapping region — and paying the consistency machinery for it.
func RunPFSShared(spec cluster.Spec, cfg Config) (Result, error) {
	cl := cluster.New(spec)
	defer cl.Close()
	created := sim.NewMailbox(cl.K, "ckpt/created")
	return runPFS(cl, cfg, func(p *sim.Proc, c *pfs.Client, rank int) (*pfs.File, int64) {
		var file *pfs.File
		var err error
		if rank == 0 {
			file, err = c.Create(p, "/ckpt/shared", 0)
			if err != nil {
				panic(fmt.Sprintf("create: %v", err))
			}
			for j := 1; j < cfg.Procs; j++ {
				created.Send(struct{}{})
			}
		} else {
			created.Recv(p)
			file, err = c.Open(p, "/ckpt/shared")
			if err != nil {
				rankFailed(rank, "open", err)
			}
		}
		file.SetShared(cfg.Procs > 1)
		return file, int64(rank) * cfg.BytesPerProc
	})
}

// runPFS is the body behind both PFS baselines: deploy the PFS on cl, start
// one jittered process per rank that times open → write → sync → close, and
// fold the phases into the Result. open gets a rank its file and the offset
// its state goes at — the one thing the two baselines disagree on.
func runPFS(cl *cluster.Cluster, cfg Config, open func(p *sim.Proc, c *pfs.Client, rank int) (*pfs.File, int64)) (Result, error) {
	if err := cfg.check(false); err != nil {
		return Result{}, err
	}
	f := cl.DeployPFS()
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := Result{Procs: cfg.Procs, Bytes: int64(cfg.Procs) * cfg.BytesPerProc}
	size := cfg.BytesPerProc // the rank closures capture this: a captured cfg is copied into each
	spawnRanks(cl, cfg.Procs, func(i int) func(*sim.Proc) {
		jitter := time.Duration(rng.Int63n(int64(cfg.jitter())))
		c := cl.NewPFSClient(f, i)
		return func(p *sim.Proc) {
			start := p.Now()
			p.Sleep(jitter)
			var t ProcTimes

			t0 := p.Now()
			file, off := open(p, c, i)
			t.Create = p.Now().Sub(t0)

			t1 := p.Now()
			if _, err := file.Write(p, off, netsim.SyntheticPayload(size)); err != nil {
				rankFailed(i, "write", err)
			}
			t.Write = p.Now().Sub(t1)

			t2 := p.Now()
			if err := file.Sync(p); err != nil {
				rankFailed(i, "sync", err)
			}
			t.Sync = p.Now().Sub(t2)

			t3 := p.Now()
			if err := file.Close(p); err != nil {
				rankFailed(i, "close", err)
			}
			t.Close = p.Now().Sub(t3)
			t.Total = p.Now().Sub(start)
			res.fold(t)
		}
	})
	if err := cl.Run(); err != nil {
		return Result{}, err
	}
	return res, nil
}

// spawnRanks is the frame every checkpoint driver shares: build each rank's
// body in rank order (so per-rank clients and jitter draws keep their
// order) and spawn it, then the drain that outlives the last rank.
func spawnRanks(cl *cluster.Cluster, n int, rank func(i int) func(*sim.Proc)) {
	done := sim.NewMailbox(cl.K, "ckpt/done")
	for i := 0; i < n; i++ {
		body := rank(i)
		cl.K.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			body(p)
			done.Send(struct{}{})
		})
	}
	cl.K.Spawn("drain", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			done.Recv(p)
		}
	})
}

// CreateResult is the outcome of a create-only microbenchmark (Figure 10).
type CreateResult struct {
	Procs     int
	Ops       int
	Elapsed   time.Duration
	OpsPerSec float64
}

// RunCreateOnlyLWFS measures parallel object creation: every process
// creates opsPerProc objects round-robin over the storage servers, no data
// written — Figure 10c.
func RunCreateOnlyLWFS(spec cluster.Spec, procs, opsPerProc int, seed int64) (CreateResult, error) {
	cl := cluster.New(spec)
	defer cl.Close()
	cl.RegisterUser("app", "s3cret")
	l := cl.DeployLWFS()
	shared := sim.NewMailbox(cl.K, "caps")
	placement := rand.New(rand.NewSource(seed)).Intn(1024)
	return runCreateOnly(cl, procs, opsPerProc, func(i int) createRank {
		c := cl.NewClient(l, i)
		var caps core.CapSet
		return createRank{
			setup: func(p *sim.Proc) {
				if i != 0 {
					caps = shared.Recv(p).(core.CapSet)
					return
				}
				if err := c.Login(p, "app", "s3cret"); err != nil {
					panic(err)
				}
				cid, err := c.CreateContainer(p)
				if err != nil {
					panic(err)
				}
				if caps, err = c.GetCaps(p, cid, authz.OpCreate); err != nil {
					panic(err)
				}
				for j := 1; j < procs; j++ {
					shared.Send(caps)
				}
			},
			create: func(p *sim.Proc, op int) error {
				_, err := c.CreateObject(p, c.Server(placement+i+op*procs), caps)
				return err
			},
		}
	})
}

// RunCreateOnlyPFS measures parallel file creation through the centralized
// MDS — Figure 10b. Server count only changes striping targets, not
// metadata throughput.
func RunCreateOnlyPFS(spec cluster.Spec, procs, opsPerProc int, seed int64) (CreateResult, error) {
	cl := cluster.New(spec)
	defer cl.Close()
	f := cl.DeployPFS()
	return runCreateOnly(cl, procs, opsPerProc, func(i int) createRank {
		c := cl.NewPFSClient(f, i)
		return createRank{create: func(p *sim.Proc, op int) error {
			_, err := c.Create(p, fmt.Sprintf("/f-%d-%d", i, op), 0)
			return err
		}}
	})
}

// createRank is one rank of a create-only run: setup (optional) runs
// before the clock starts, create is the timed operation.
type createRank struct {
	setup  func(p *sim.Proc)
	create func(p *sim.Proc, op int) error
}

// runCreateOnly is the rank frame both create-only drivers share: every
// rank issues opsPerProc creates back to back, and the run is clocked from
// the first rank's start to the last rank's finish. Fewer than one rank
// or one create each is refused with fs.ErrInvalid.
func runCreateOnly(cl *cluster.Cluster, procs, opsPerProc int, rank func(i int) createRank) (CreateResult, error) {
	if procs < 1 || opsPerProc < 1 {
		return CreateResult{}, fmt.Errorf("checkpoint: %d procs x %d creates: want at least 1 of each: %w", procs, opsPerProc, fs.ErrInvalid)
	}
	var first, last sim.Time
	spawnRanks(cl, procs, func(i int) func(*sim.Proc) {
		r := rank(i)
		return func(p *sim.Proc) {
			if r.setup != nil {
				r.setup(p)
			}
			start := p.Now()
			if first == 0 || start < first {
				first = start
			}
			for op := 0; op < opsPerProc; op++ {
				if err := r.create(p, op); err != nil {
					rankFailed(i, "create", err)
				}
			}
			if p.Now() > last {
				last = p.Now()
			}
		}
	})
	if err := cl.Run(); err != nil {
		return CreateResult{}, err
	}
	ops := procs * opsPerProc
	elapsed := last.Sub(first)
	return CreateResult{Procs: procs, Ops: ops, Elapsed: elapsed,
		OpsPerSec: float64(ops) / elapsed.Seconds()}, nil
}
