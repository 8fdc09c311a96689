package checkpoint

import (
	"fmt"
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
	f := cl.DeployPFS()
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := Result{Procs: cfg.Procs, Bytes: int64(cfg.Procs) * cfg.BytesPerProc}
	done := sim.NewMailbox(cl.K, "ckpt/done")
	for i := 0; i < cfg.Procs; i++ {
		i := i
		jitter := time.Duration(rng.Int63n(int64(cfg.jitter())))
		c := cl.NewPFSClient(f, i)
		cl.K.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			start := p.Now()
			p.Sleep(jitter)
			var t ProcTimes

			t0 := p.Now()
			file, err := c.Create(p, fmt.Sprintf("/ckpt/rank-%d", i), 0)
			if err != nil {
				panic(fmt.Sprintf("rank %d create: %v", i, err))
			}
			t.Create = p.Now().Sub(t0)

			t1 := p.Now()
			if _, err := file.Write(p, 0, netsim.SyntheticPayload(cfg.BytesPerProc)); err != nil {
				panic(fmt.Sprintf("rank %d write: %v", i, err))
			}
			t.Write = p.Now().Sub(t1)

			t2 := p.Now()
			if err := file.Sync(p); err != nil {
				panic(fmt.Sprintf("rank %d sync: %v", i, err))
			}
			t.Sync = p.Now().Sub(t2)

			t3 := p.Now()
			if err := file.Close(p); err != nil {
				panic(fmt.Sprintf("rank %d close: %v", i, err))
			}
			t.Close = p.Now().Sub(t3)
			t.Total = p.Now().Sub(start)
			res.fold(t)
			done.Send(struct{}{})
		})
	}
	cl.K.Spawn("drain", func(p *sim.Proc) {
		for i := 0; i < cfg.Procs; i++ {
			done.Recv(p)
		}
	})
	if err := cl.Run(); err != nil {
		return Result{}, err
	}
	return res, nil
}

// RunPFSShared builds a fresh cluster, deploys the baseline PFS and runs
// the shared-file checkpoint: one striped file, every process writing its
// non-overlapping region — and paying the consistency machinery for it.
func RunPFSShared(spec cluster.Spec, cfg Config) (Result, error) {
	cl := cluster.New(spec)
	defer cl.Close()
	f := cl.DeployPFS()
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := Result{Procs: cfg.Procs, Bytes: int64(cfg.Procs) * cfg.BytesPerProc}
	done := sim.NewMailbox(cl.K, "ckpt/done")
	created := sim.NewMailbox(cl.K, "ckpt/created")

	for i := 0; i < cfg.Procs; i++ {
		i := i
		jitter := time.Duration(rng.Int63n(int64(cfg.jitter())))
		c := cl.NewPFSClient(f, i)
		cl.K.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			start := p.Now()
			p.Sleep(jitter)
			var t ProcTimes
			var file *pfs.File
			var err error

			t0 := p.Now()
			if i == 0 {
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
					panic(fmt.Sprintf("rank %d open: %v", i, err))
				}
			}
			file.SetShared(cfg.Procs > 1)
			t.Create = p.Now().Sub(t0)

			t1 := p.Now()
			if _, err := file.Write(p, int64(i)*cfg.BytesPerProc, netsim.SyntheticPayload(cfg.BytesPerProc)); err != nil {
				panic(fmt.Sprintf("rank %d write: %v", i, err))
			}
			t.Write = p.Now().Sub(t1)

			t2 := p.Now()
			if err := file.Sync(p); err != nil {
				panic(fmt.Sprintf("rank %d sync: %v", i, err))
			}
			t.Sync = p.Now().Sub(t2)

			t3 := p.Now()
			if err := file.Close(p); err != nil {
				panic(fmt.Sprintf("rank %d close: %v", i, err))
			}
			t.Close = p.Now().Sub(t3)
			t.Total = p.Now().Sub(start)
			res.fold(t)
			done.Send(struct{}{})
		})
	}
	cl.K.Spawn("drain", func(p *sim.Proc) {
		for i := 0; i < cfg.Procs; i++ {
			done.Recv(p)
		}
	})
	if err := cl.Run(); err != nil {
		return Result{}, err
	}
	return res, nil
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
	done := sim.NewMailbox(cl.K, "done")
	shared := sim.NewMailbox(cl.K, "caps")
	var last sim.Time
	var first sim.Time
	rng := rand.New(rand.NewSource(seed))
	placement := rng.Intn(1024)

	for i := 0; i < procs; i++ {
		i := i
		c := cl.NewClient(l, i)
		cl.K.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			var caps coreCaps
			if i == 0 {
				if err := c.Login(p, "app", "s3cret"); err != nil {
					panic(err)
				}
				cid, err := c.CreateContainer(p)
				if err != nil {
					panic(err)
				}
				cs, err := c.GetCaps(p, cid, authz.OpCreate)
				if err != nil {
					panic(err)
				}
				caps = coreCaps{cs}
				for j := 1; j < procs; j++ {
					shared.Send(caps)
				}
			} else {
				caps = shared.Recv(p).(coreCaps)
			}
			start := p.Now()
			if first == 0 || start < first {
				first = start
			}
			for op := 0; op < opsPerProc; op++ {
				if _, err := c.CreateObject(p, c.Server(placement+i+op*procs), caps.CapSet); err != nil {
					panic(fmt.Sprintf("rank %d create: %v", i, err))
				}
			}
			if p.Now() > last {
				last = p.Now()
			}
			done.Send(struct{}{})
		})
	}
	cl.K.Spawn("drain", func(p *sim.Proc) {
		for i := 0; i < procs; i++ {
			done.Recv(p)
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

// RunCreateOnlyPFS measures parallel file creation through the centralized
// MDS — Figure 10b. Server count only changes striping targets, not
// metadata throughput.
func RunCreateOnlyPFS(spec cluster.Spec, procs, opsPerProc int, seed int64) (CreateResult, error) {
	cl := cluster.New(spec)
	defer cl.Close()
	f := cl.DeployPFS()
	done := sim.NewMailbox(cl.K, "done")
	var last, first sim.Time
	for i := 0; i < procs; i++ {
		i := i
		c := cl.NewPFSClient(f, i)
		cl.K.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			start := p.Now()
			if first == 0 || start < first {
				first = start
			}
			for op := 0; op < opsPerProc; op++ {
				if _, err := c.Create(p, fmt.Sprintf("/f-%d-%d", i, op), 0); err != nil {
					panic(fmt.Sprintf("rank %d create: %v", i, err))
				}
			}
			if p.Now() > last {
				last = p.Now()
			}
			done.Send(struct{}{})
		})
	}
	cl.K.Spawn("drain", func(p *sim.Proc) {
		for i := 0; i < procs; i++ {
			done.Recv(p)
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

// coreCaps wraps a CapSet for mailbox transport.
type coreCaps struct{ CapSet core.CapSet }
