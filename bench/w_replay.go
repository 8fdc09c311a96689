package main

import (
	"fmt"
	"time"

	"lwfs/internal/cluster"
	"lwfs/internal/core"
	"lwfs/internal/lwfspfs"
	"lwfs/internal/metrics"
	"lwfs/internal/portals"
	"lwfs/internal/qos"
	"lwfs/internal/sim"
	"lwfs/internal/stats"
	"lwfs/internal/stdfs"
	"lwfs/internal/stripe"
	"lwfs/internal/trace"
)

const (
	whyReplayJacobi  = "Small strided records: 2PC, naming and metadata dominate, payload is negligible; host time is the extent store under the txn journal, virtual time is RPC-count-bound."
	whyReplaySeismic = "The data path: stripe fan-out, server-directed pulls, NIC serialization and the disk model; the only workload with substantial reads beside its writes."
	whyReplayClimate = "The same stripe/lwfspfs/portals layers used the other way: a storage server crashes mid-run, so timeouts, retries, breaker fast-fails, degraded reads and tolerant writes carry the load."
)

// replaySpec sizes one trace-replay workload. Every worker is a closed
// loop: a simulated client on its own compute node that issues its next
// operation when the previous one completes.
type replaySpec struct {
	Trace           string
	Workers, Clones int // full size
	TinyClones      int
	Scheme          stripe.Scheme
	// Degraded splits the trace into a populate phase and a rewrite+read
	// phase, and crashes one storage server during the second.
	Degraded bool
}

const replayServers = 8 // one per storage node, RAID-0 or 2-copy replica across them

var (
	replayJacobi  = replaySpec{Trace: "jacobi", Workers: 16, Clones: 16, TinyClones: 2}
	replaySeismic = replaySpec{Trace: "seismic", Workers: 8, Clones: 8, TinyClones: 1}
	replayClimate = replaySpec{Trace: "climate", Workers: 16, Clones: 192, TinyClones: 32,
		Scheme: stripe.Replica, Degraded: true}
)

// Fault schedule of replay_climate_degraded, in virtual time from the start
// of the second phase. Fault-free, the second phase takes 0.60-0.62 s at
// full size (measured with the fault schedule disabled, seeds 1-3), so the
// victim dies ≈ 40 % in and is back ≈ 70 % in; the seed adds up to 5 % to
// both.
const (
	crashAfter   = 250 * time.Millisecond
	restartAfter = 435 * time.Millisecond
	tinyFaultDiv = 6 // the tiny second phase is ≈ 1/6 as long
)

// degradedRetry must outlast the slowest healthy operation (a create's
// two-phase commit under 16-way load peaks near 40 ms), or a clean run
// reads as a dead server.
var degradedRetry = portals.RetryPolicy{
	MaxAttempts: 2,
	Timeout:     100 * time.Millisecond,
	Backoff:     time.Millisecond,
	Jitter:      100 * time.Microsecond,
}

var degradedBreaker = qos.BreakerPolicy{Threshold: 2, Cooldown: 100 * time.Millisecond, MaxCooldown: 400 * time.Millisecond}

// replayRun is one repetition's cluster and what set-up prepared on it.
type replayRun struct {
	spec    replaySpec
	par     params
	clones  int
	cl      *cluster.Cluster
	lw      *cluster.LWFS
	clients []*core.Client
	mounts  []*lwfspfs.FS
	stagger []time.Duration
	phases  []*trace.Trace
	victim  int
	rec     *spanRecorder
	results []*trace.Result
	base    metrics.Snapshot
}

func (s replaySpec) run(par params) (rep, error) {
	var out rep
	run := &replayRun{spec: s, par: par, clones: s.Clones}
	if par.Tiny {
		run.clones = s.TinyClones
	}

	start := time.Now()
	if err := run.setUp(); err != nil {
		return out, err
	}
	out.SetupS = time.Since(start).Seconds()

	host, err := measure(par.Traced, run.replay)
	if err != nil {
		return out, err
	}
	out.Host = host
	final := run.cl.Metrics().Snapshot()

	ops, errs, bytes := 0, 0, int64(0)
	lat := &stats.Sample{}
	for _, r := range run.results {
		ops += r.Ops
		errs += r.Errors
		bytes += r.Bytes
		lat.Merge(r.OpMs)
	}
	first, last := run.results[0], run.results[len(run.results)-1]
	elapsed := last.End.Sub(first.Start).Seconds()
	out.Sim = map[string]float64{
		"sim_elapsed_s": elapsed,
		"sim_mbps":      float64(bytes) / 1e6 / elapsed,
		"sim_ops_per_s": float64(ops) / elapsed,
		"sim_op_ms_p50": lat.Percentile(50),
	}
	out.Notes = append(out.Notes, fmt.Sprintf("sim_op_ms_p50 over %d ops", lat.N()))
	for i, r := range run.results {
		if len(run.results) > 1 {
			out.Notes = append(out.Notes, fmt.Sprintf("phase %d: %d ops in %v virtual", i+1, r.Ops, r.Elapsed()))
		}
	}
	if lat.N() >= 1000 { // so that at least ten samples lie beyond the p99
		out.Sim["sim_op_ms_p99"] = lat.Percentile(99)
	}

	checked, bad, err := run.verify()
	if err != nil {
		return out, err
	}
	out.Attempted = ops + checked
	out.Failed = errs + bad
	if first := firstErr(run.results); first != nil {
		out.Notes = append(out.Notes, "first replay error: "+first.Error())
	}

	if par.Traced {
		out.Layer = run.layerValues(final, host, ops)
		out.Spans = run.rec.spans
	}
	return out, nil
}

func firstErr(rs []*trace.Result) error {
	for _, r := range rs {
		if err := r.Err(); err != nil {
			return err
		}
	}
	return nil
}

// setUp is everything before the measured run: decode the trace, draw the
// seeded inputs, build and deploy the cluster, format the mount, log every
// worker in and mount it (one kernel run), pick the victim.
func (r *replayRun) setUp() error {
	tr, err := trace.Example(r.spec.Trace)
	if err != nil {
		return err
	}
	r.phases = []*trace.Trace{tr}
	if r.spec.Degraded {
		r.phases = splitForDegraded(tr)
	}

	rng := sim.NewRand(r.par.Seed)
	workers := r.spec.Workers
	r.stagger = make([]time.Duration, workers)
	for i := range r.stagger {
		r.stagger[i] = rng.Duration(time.Millisecond)
	}
	r.victim = int(uint64(r.par.Seed) % replayServers)

	spec := cluster.DevCluster()
	spec.ComputeNodes = workers
	spec.ServersPerNode = 1
	spec = spec.WithServers(replayServers)
	r.cl = cluster.New(spec)
	r.cl.RegisterUser("app", "s3cret")
	r.lw = r.cl.DeployLWFS()
	r.clients = make([]*core.Client, workers)
	r.mounts = make([]*lwfspfs.FS, workers)
	for i := range r.clients {
		c := r.cl.NewClient(r.lw, i)
		if r.spec.Degraded {
			c.SetRetry(degradedRetry, r.par.Seed+int64(i))
			c.SetBreaker(degradedBreaker)
		}
		r.clients[i] = c
	}

	var setupErr error
	r.cl.Spawn("bench-setup", func(p *sim.Proc) {
		setupErr = func() error {
			if err := r.clients[0].Login(p, "app", "s3cret"); err != nil {
				return err
			}
			pfs, err := lwfspfs.Format(p, r.clients[0], "/replay",
				lwfspfs.Options{StripeUnit: 64 << 10, Scheme: r.spec.Scheme})
			if err != nil {
				return err
			}
			r.mounts[0] = pfs
			for i := 1; i < workers; i++ {
				if err := r.clients[i].Login(p, "app", "s3cret"); err != nil {
					return err
				}
				if r.mounts[i], err = lwfspfs.Mount(p, r.clients[i], "/replay", pfs.Container()); err != nil {
					return err
				}
			}
			return nil
		}()
	})
	if err := r.cl.Run(); err != nil {
		return err
	}
	if setupErr != nil {
		return fmt.Errorf("set-up: %w", setupErr)
	}
	if r.par.Traced {
		ops := 0
		for _, ph := range r.phases {
			ops += len(ph.Events) + 1
		}
		r.rec = newSpanRecorder(ops * r.clones)
	}
	r.base = r.cl.Metrics().Snapshot()
	return nil
}

// replay is the measured run: the kernel run that executes every phase, and
// nothing else.
func (r *replayRun) replay() error {
	r.startPhase(0)
	return r.cl.Run()
}

// startPhase spawns the replayers of one phase; the last worker to finish
// starts the next phase, and the fault schedule with it.
func (r *replayRun) startPhase(i int) {
	next := 0
	mount := func(wp *sim.Proc) (trace.Mount, error) {
		w := next
		next++
		if i == 0 {
			wp.Sleep(r.stagger[w])
		}
		m := &mountShim{x: stdfs.New(wp, r.mounts[w]), rec: r.rec, rooted: i > 0}
		if r.par.Corrupt && i == 0 && w == 0 {
			done := false
			m.corrupt = func(string, int64) bool {
				first := !done
				done = true
				return first
			}
		}
		return m, nil
	}
	opts := trace.Options{Concurrency: r.spec.Workers, Clones: r.clones, Metrics: r.cl.Metrics()}
	if i+1 < len(r.phases) {
		opts.OnDone = func(p *sim.Proc) {
			r.startPhase(i + 1)
			r.scheduleFault(p.Now())
		}
	}
	r.results = append(r.results, trace.StartReplay(r.cl.K, r.phases[i], mount, opts))
}

// scheduleFault crashes the victim storage server and restarts it later.
// Its copies miss the writes made meanwhile; the second phase rewrites the
// bytes the first phase wrote, so the restarted copies still read right.
func (r *replayRun) scheduleFault(now sim.Time) {
	jitter := 1 + float64(uint64(r.par.Seed)%97)/96*0.05
	scale := func(d time.Duration) time.Duration {
		if r.par.Tiny {
			d /= tinyFaultDiv
		}
		return time.Duration(float64(d) * jitter)
	}
	srv := r.lw.Servers[r.victim]
	r.cl.K.At(now.Add(scale(crashAfter)), srv.Crash)
	r.cl.K.SpawnAt(now.Add(scale(restartAfter)), "bench-restart", func(p *sim.Proc) {
		if _, err := srv.Restart(p); err != nil {
			panic(fmt.Sprintf("bench: restart of storage server %d: %v", r.victim, err))
		}
	})
}

// splitForDegraded turns one trace into two. The first phase is the trace
// up to each file's first close: creates, timestep writes, syncs. The second
// reopens the files, rewrites the same bytes in place, and replays the rest
// (the hyperslab reads). Creates and syncs need every target alive, so the
// fault falls in the second phase, which has neither.
func splitForDegraded(tr *trace.Trace) []*trace.Trace {
	closed := map[string]bool{}
	var closeOrder []string
	cut := 0
	for i, ev := range tr.Events {
		if ev.Op == trace.OpClose && !closed[ev.Path] {
			closed[ev.Path] = true
			closeOrder = append(closeOrder, ev.Path)
		}
		if ev.Op == trace.OpOpen && closed[ev.Path] {
			cut = i
			break
		}
	}
	a := &trace.Trace{Events: tr.Events[:cut]}
	b := &trace.Trace{}
	for _, ev := range a.Events {
		if ev.Op == trace.OpWrite {
			b.Events = append(b.Events, ev) // opens on demand
		}
	}
	for _, path := range closeOrder {
		b.Events = append(b.Events, trace.Event{Op: trace.OpClose, Path: path})
	}
	b.Events = append(b.Events, tr.Events[cut:]...)
	return []*trace.Trace{a, b}
}

// layerValues reads the public counters after a traced run (source R) and
// summarises the spans (source S).
func (r *replayRun) layerValues(final metrics.Snapshot, host hostCost, ops int) map[string]float64 {
	window := final.At.Sub(r.base.At).Seconds()
	v := registryValues(final, r.base)
	v["sim.events_per_wall_s"] = v["sim.events_dispatched"] / host.WallS
	v["portals.rpcs_per_op"] = v["portals.rpcs"] / float64(ops)

	deviceValues(v, r.cl, r.lw, window)

	for _, kind := range []string{"create", "write", "read", "sync", "close"} {
		ms := r.rec.simMs("stdfs", kind)
		v["stdfs."+kind+"_sim_ms_p50"] = percentile(ms, 50)
		if (kind == "write" || kind == "read") && len(ms) >= 1000 {
			v["stdfs."+kind+"_sim_ms_p99"] = percentile(ms, 99)
		}
	}
	runtimeValues(v, host)
	return v
}
