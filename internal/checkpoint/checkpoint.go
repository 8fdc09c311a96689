// Package checkpoint implements the paper's case study (§4): checkpointing
// the state of an n-process application to stable storage, three ways:
//
//   - LWFS, one object per process — the Figure 8 pseudocode: a distributed
//     transaction wrapping parallel object creates, server-directed dumps,
//     a metadata gather to rank 0, and one naming-service entry.
//   - Traditional PFS, one file per process — bandwidth scales but every
//     create funnels through the centralized metadata server.
//   - Traditional PFS, one shared file — non-overlapping writes that the
//     file system's consistency machinery nevertheless serializes.
//
// Each implementation reports, per process, the time to open/create, write,
// sync and close its state, and the run reports the maximum across
// processes (the application can't resume computing until the slowest
// process finishes), exactly as the paper measures.
package checkpoint

import (
	"fmt"
	"io/fs"
	"math/rand"
	"time"

	"lwfs/internal/authz"
	"lwfs/internal/burst"
	"lwfs/internal/cluster"
	"lwfs/internal/core"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/trace"
)

// Config parameterizes one checkpoint run.
type Config struct {
	Procs        int
	BytesPerProc int64
	Seed         int64 // start-time jitter and placement variation per trial
	// JitterMax bounds the per-process start jitter (default 1ms).
	JitterMax time.Duration
	// Retry, when enabled, arms every client RPC with timeout/backoff
	// retransmission. Required for fault-injection runs: a crashed or
	// partitioned server then degrades to failover onto a survivor instead
	// of hanging the job. Timeout must comfortably cover one BytesPerProc
	// write, or healthy writes will be misread as failures.
	Retry portals.RetryPolicy
	// PatternData dumps PatternFor(rank, BytesPerProc) bytes instead of
	// metadata-only synthetic payloads, so a Restore pass can verify the
	// checkpoint content bit-exactly — even for objects that failover
	// redirected to a different server. Costs real allocation per rank;
	// leave it off for large performance sweeps.
	PatternData bool
	// DrainTimeout bounds the commit tail's per-buffer drain wait (0 =
	// 5 s default, negative = wait forever). A crashed buffer surfaces as
	// a timeout after this long, turning into a detectable abort.
	DrainTimeout time.Duration
	// TotalRanks, when positive, scales an LWFS run to a TotalRanks-rank
	// job: the Procs ranks above run the full protocol, and SetupLWFS models
	// the other TotalRanks-Procs as calibrated shadow load on the same
	// ingress paths, its Result covering the whole job (sampled.go). 0
	// means every rank is exact; otherwise it is at least Procs.
	TotalRanks int
	// RecoveryTimeout, when positive, makes the commit tail ride out a
	// buffer crash instead of aborting at the first drain-wait timeout:
	// rank 0 keeps re-issuing DrainWait against the buffer (which, if
	// journaled, replays its journal on restart and resumes draining) until
	// the wait succeeds or RecoveryTimeout elapses since the tail began.
	// Zero keeps the pre-journal behavior: the first failed wait aborts.
	RecoveryTimeout time.Duration
}

// check refuses a configuration no run can have, with an error wrapping
// fs.ErrInvalid. sampling is false on a PFS baseline run: sampled mode
// models the LWFS dump only, so TotalRanks must be 0 there.
func (c Config) check(sampling bool) error {
	var bad string
	switch {
	case c.Procs < 1:
		bad = fmt.Sprintf("Procs %d below 1", c.Procs)
	case c.BytesPerProc < 0:
		bad = fmt.Sprintf("BytesPerProc %d below 0", c.BytesPerProc)
	case c.JitterMax < 0:
		bad = fmt.Sprintf("JitterMax %v below 0", c.JitterMax)
	case c.TotalRanks < 0 || c.TotalRanks > 0 && c.TotalRanks < c.Procs:
		bad = fmt.Sprintf("TotalRanks %d: want 0 or at least Procs %d", c.TotalRanks, c.Procs)
	case !sampling && c.TotalRanks != 0:
		bad = fmt.Sprintf("TotalRanks %d on a PFS run: sampled mode models the LWFS dump only", c.TotalRanks)
	default:
		return nil
	}
	return fmt.Errorf("checkpoint: %s: %w", bad, fs.ErrInvalid)
}

func (c Config) drainTimeout() time.Duration {
	switch {
	case c.DrainTimeout < 0:
		return 0 // indefinite
	case c.DrainTimeout == 0:
		return 5 * time.Second
	}
	return c.DrainTimeout
}

// PatternFor returns rank's checkpoint payload: the module's one seeded
// byte stream (trace.DataFor) keyed by rank. Tests and restore verification
// regenerate it to check content bit-exactly.
func PatternFor(rank int, n int64) []byte {
	return trace.DataFor(uint64(rank)+1, n)
}

func (c Config) jitter() time.Duration {
	if c.JitterMax == 0 {
		return time.Millisecond
	}
	return c.JitterMax
}

// ProcTimes is one process's phase breakdown.
type ProcTimes struct {
	Create time.Duration // create/open the file or object
	Write  time.Duration // dump state
	Sync   time.Duration // make durable
	Close  time.Duration // close / metadata+name+commit share
	Total  time.Duration
}

// Result is one checkpoint run's outcome. Elapsed and Durable cover the
// whole job, shadow ranks included in sampled mode (Config.TotalRanks);
// Procs, Bytes, MaxTimes and Per count the exact ranks only.
type Result struct {
	Procs    int
	Bytes    int64         // total data across processes
	Elapsed  time.Duration // max process total (the paper's metric)
	MaxTimes ProcTimes     // max per phase across processes
	Per      []ProcTimes
	// Durable is the full commit-inclusive time as seen by rank 0: through
	// the metadata tail, any burst-tier drains, and the transaction commit.
	// Without a burst tier it tracks rank 0's total; with one, the gap
	// Durable−Elapsed is exactly the latency the write-behind tier hides.
	// Shadow ranks raise it to their last disk write's instant, and their
	// acks raise Elapsed to the last ack's.
	Durable time.Duration
	// Aborted is set when the checkpoint transaction had to be rolled back
	// (burst mode: staged state was lost before it drained). The dump left
	// no committed manifest — a restore attempt fails cleanly.
	Aborted bool
	// Recovered is set when a drain wait failed (buffer crash) but a retry
	// within RecoveryTimeout eventually succeeded — the dump committed
	// Durable through a buffer recovery instead of aborting.
	Recovered bool

	shadowBytes int64 // the shadow ranks' bytes in sampled mode
}

// ThroughputMBs reports the paper's Figure 9 metric: aggregate MB/s. It
// divides the job's bytes by Elapsed: Bytes plus, in sampled mode, the
// shadow ranks' bytes, since Elapsed covers them too.
func (r Result) ThroughputMBs() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes+r.shadowBytes) / (1 << 20) / r.Elapsed.Seconds()
}

func (r *Result) fold(t ProcTimes) {
	r.Per = append(r.Per, t)
	r.MaxTimes.Create = max(r.MaxTimes.Create, t.Create)
	r.MaxTimes.Write = max(r.MaxTimes.Write, t.Write)
	r.MaxTimes.Sync = max(r.MaxTimes.Sync, t.Sync)
	r.MaxTimes.Close = max(r.MaxTimes.Close, t.Close)
	r.Elapsed = max(r.Elapsed, t.Total)
}

// RunLWFS builds a fresh cluster from spec, deploys the LWFS-core and runs
// one object-per-process checkpoint (Figure 8).
func RunLWFS(spec cluster.Spec, cfg Config) (Result, error) {
	cl := cluster.New(spec)
	defer cl.Close()
	cl.RegisterUser("app", "s3cret")
	l := cl.DeployLWFS()
	res, err := SetupLWFS(cl, l, cfg)
	if err != nil {
		return Result{}, err
	}
	if err := cl.Run(); err != nil {
		return Result{}, err
	}
	return *res, nil
}

// SetupLWFS schedules one object-per-process checkpoint on an existing
// deployment (the caller drives cl.Run and may schedule more work, e.g. a
// Restore pass). The user "app"/"s3cret" must be registered. The Result is
// populated once the simulation has run.
//
// A deployment with a burst tier routes every rank's dump through it (ranks
// are spread over the buffers by topology distance, see BufferAssignment):
// the rank is acked as soon as the buffer holds its state, and the manifest
// commit waits for the drains. Elapsed then measures *apparent* checkpoint
// time and Durable the commit-inclusive tail; a buffer crash before drain
// aborts the whole dump (Aborted) instead of committing a manifest over
// lost data.
//
// With Config.TotalRanks set the Result covers the whole job (sampled.go).
// A Config no run can have is refused with fs.ErrInvalid before anything
// is built.
func SetupLWFS(cl *cluster.Cluster, l *cluster.LWFS, cfg Config) (*Result, error) {
	if err := cfg.check(true); err != nil {
		return nil, err
	}
	res := Result{Procs: cfg.Procs, Bytes: int64(cfg.Procs) * cfg.BytesPerProc}
	deployShadow(cl, l, &cfg, &res)
	rng := rand.New(rand.NewSource(cfg.Seed))
	buffers := l.BurstTargets()

	// Outcome counters for the whole tier, one set per cluster registry:
	// dumps that committed, dumps rolled back, dumps that rode out a
	// buffer crash, and the committed volume.
	ck := cl.Metrics().Scope("checkpoint")
	mDumps := ck.Counter("dumps")
	mAborted := ck.Counter("aborted")
	mRecovered := ck.Counter("recovered")
	mBytes := ck.Counter("committed_bytes")

	clients := make([]*core.Client, cfg.Procs)
	bclients := make([]*burst.Client, cfg.Procs)
	for i := range clients {
		clients[i] = cl.NewClient(l, i)
		if cfg.Retry.Enabled() {
			// Per-rank jitter seeds keep chaos runs deterministic while
			// decorrelating the ranks' backoff schedules.
			clients[i].SetRetry(cfg.Retry, cfg.Seed+int64(i+1)*1000003)
		}
		if len(buffers) > 0 {
			// Shares the core client's caller, so staging rides the same
			// retry policy (and the buffer's dedup keeps it exactly-once).
			bclients[i] = burst.NewClient(clients[i].Caller())
		}
	}
	// route names the buffer each rank stages through (nil without a burst
	// tier).
	var route *burstRoute
	if len(buffers) > 0 {
		nodes := make([]netsim.NodeID, cfg.Procs)
		for i, c := range clients {
			nodes[i] = c.Node()
		}
		route = &burstRoute{buffers: buffers, assign: BufferAssignment(nodes, buffers)}
	}
	// Gather channel for the metadata phase (rank 0 collects ObjRefs).
	gather := sim.NewMailbox(cl.K, "ckpt/gather")

	// Rank 0: acquire credentials and capabilities once, scatter, then act
	// as an ordinary writer plus the metadata/naming/commit tail.
	placement := rng.Intn(1024) // rotate object placement per trial
	jitters := make([]time.Duration, cfg.Procs)
	for i := range jitters {
		jitters[i] = time.Duration(rng.Int63n(int64(cfg.jitter())))
	}

	type share struct {
		caps core.CapSet
		pl   *core.Placement
	}
	shared := sim.NewMailbox(cl.K, "ckpt/share")

	rank0 := func(p *sim.Proc) {
		c := clients[0]
		if err := c.Login(p, "app", "s3cret"); err != nil {
			panic(fmt.Sprintf("login: %v", err))
		}
		cid, err := c.CreateContainer(p)
		if err != nil {
			panic(fmt.Sprintf("container: %v", err))
		}
		caps, err := c.GetCaps(p, cid, authz.AllOps...)
		if err != nil {
			panic(fmt.Sprintf("getcaps: %v", err))
		}
		var peers []core.ProcAddr
		for i := 1; i < cfg.Procs; i++ {
			peers = append(peers, clients[i].Addr())
		}
		// One transaction for the whole checkpoint (BEGINTXN), shared by the
		// ranks as a real MPI job would share its ID, with the capabilities.
		pl := &core.Placement{Tx: c.BeginTxn()}
		for i := 1; i < cfg.Procs; i++ {
			shared.Send(share{caps: caps, pl: pl})
		}
		if len(peers) > 0 {
			c.ScatterCaps(p, caps, peers)
		}

		start := p.Now()
		p.Sleep(jitters[0])
		t := dumpRank(p, c, bclients[0], caps, pl, 0, placement, route, &cfg)

		// Metadata gather: collect every rank's ObjRef, write the metadata
		// object, create the name, commit (the Figure 8 tail).
		tailStart := p.Now()
		refs := make([]storage.ObjRef, cfg.Procs)
		refs[0] = t.ref
		for i := 1; i < cfg.Procs; i++ {
			m := gather.Recv(p).(gatherMsg)
			refs[m.rank] = m.ref
		}
		// Burst mode: the commit only ever covers drained data. Wait for
		// every buffer to vouch for its extents; if one cannot (crashed and
		// lost staged state, drain gave up, or it stopped answering past any
		// recovery window), roll the whole checkpoint back — the provisional
		// creates are removed by the participants' abort path, so a restore
		// never sees a manifest over partially drained objects.
		recovered, err := waitDrains(p, bclients[0], refs, route, &cfg)
		res.Recovered = recovered
		if recovered {
			mRecovered.Inc()
		}
		if err != nil {
			if aerr := pl.Abort(p); aerr != nil {
				panic(fmt.Sprintf("abort after %v: %v", err, aerr))
			}
			res.Aborted = true
			mAborted.Inc()
		} else {
			// Ranks that finished on a server a later rank saw die must be
			// re-homed before the manifest is written: a failed server's journal
			// replay deletes its provisional creates by presumed abort.
			var mdT ProcTimes
			if err := rehomeFailed(p, c, caps, pl, refs, placement, &cfg, &mdT); err != nil {
				panic(fmt.Sprintf("re-home: %v", err))
			}
			publishManifest(p, c, caps, pl, placement, EncodeMetadata(refs, cfg.BytesPerProc), refs, &mdT)
			mDumps.Inc()
			mBytes.Add(res.Bytes)
		}
		t.t.Close = p.Now().Sub(tailStart)
		if route != nil {
			// Apparent time: the application resumes computing at the ack,
			// not at the commit — the tail is what the tier hides.
			t.t.Total = tailStart.Sub(start)
		} else {
			t.t.Total = p.Now().Sub(start)
		}
		res.Durable = max(res.Durable, p.Now().Sub(start))
		res.fold(t.t)
	}

	spawnRanks(cl, cfg.Procs, func(i int) func(*sim.Proc) {
		if i == 0 {
			return rank0
		}
		return func(p *sim.Proc) {
			c := clients[i]
			sh := shared.Recv(p).(share)
			if _, err := c.WaitCaps(p); err != nil {
				panic(fmt.Sprintf("rank %d caps: %v", i, err))
			}
			start := p.Now()
			p.Sleep(jitters[i])
			t := dumpRank(p, c, bclients[i], sh.caps, sh.pl, i, placement, route, &cfg)
			gather.Send(gatherMsg{rank: i, ref: t.ref})
			t.t.Total = p.Now().Sub(start)
			res.fold(t.t)
		}
	})
	return &res, nil
}

type gatherMsg struct {
	rank int
	ref  storage.ObjRef
}

type dumpOut struct {
	t   ProcTimes
	ref storage.ObjRef
}

// burstRoute sends each rank's dump through the burst tier: rank r stages
// through buffers[assign[r]].
type burstRoute struct {
	buffers []burst.Target
	assign  []int
}

// dumpRank runs one rank's dump: through the burst tier when route is
// non-nil, otherwise the CHECKPOINT body CREATEOBJ + DUMPSTATE + sync straight
// at the storage servers, failing over when the object's server dies
// mid-dump.
func dumpRank(p *sim.Proc, c *core.Client, bc *burst.Client, caps core.CapSet, pl *core.Placement, rank, placement int, route *burstRoute, cfg *Config) dumpOut {
	if route != nil {
		return dumpViaBurst(p, c, bc, caps, pl, rank, placement, route, cfg)
	}
	return dumpDirect(p, c, caps, pl, rank, placement, cfg)
}

// dumpDirect is dumpRank without a burst tier. Its payload and timings stay
// out of dumpRank's frame, which is under every rank parked in a stage.
func dumpDirect(p *sim.Proc, c *core.Client, caps core.CapSet, pl *core.Placement, rank, placement int, cfg *Config) (out dumpOut) {
	var err error
	if out.ref, err = placeCopies(p, c, caps, pl, rank+placement, payloadFor(rank, cfg), true, &out.t); err != nil {
		panic(fmt.Sprintf("rank %d dump: %v", rank, err))
	}
	return out
}

// dumpViaBurst is the write-behind CHECKPOINT body: the object is still
// created (transactionally) at its storage server, but the state dump is
// handed to a burst buffer, which acks as soon as its pull lands and makes
// the data durable later. There is no per-rank sync — durability is the
// drain's job, and the commit tail refuses to seal the manifest until every
// buffer vouches for it. Under backpressure (full staging window) the
// buffer degrades to a synchronous relay and the ack time simply grows.
func dumpViaBurst(p *sim.Proc, c *core.Client, bc *burst.Client, caps core.CapSet, pl *core.Placement, rank, placement int, route *burstRoute, cfg *Config) dumpOut {
	var out dumpOut
	t0 := p.Now()
	tgt := c.Server(rank + placement)
	ref, err := c.CreateObjectTxn(p, tgt, caps, pl.Tx)
	if err != nil {
		panic(fmt.Sprintf("rank %d create: %v", rank, err))
	}
	out.t.Create = p.Now().Sub(t0)

	t1 := p.Now()
	bt := route.buffers[route.assign[rank]]
	if _, err := bc.StageWrite(p, bt, ref, caps.Get(authz.OpWrite), 0, payloadFor(rank, cfg)); err != nil {
		panic(fmt.Sprintf("rank %d stage: %v", rank, err))
	}
	out.t.Write = p.Now().Sub(t1)
	out.ref = ref
	return out
}

// recoveryPoll paces the commit tail's re-issued drain waits while a
// crashed buffer is (hopefully) being restarted.
const recoveryPoll = 10 * time.Millisecond

// waitDrains is the burst-mode commit gate: every rank's object must be
// durable on its storage server before the manifest may exist. Refs are
// grouped back onto the buffer that staged them (the route dumpViaBurst
// used) and each buffer is polled with one bounded wait.
//
// With RecoveryTimeout set, a wait that times out (buffer down) is
// re-issued until the buffer answers again or the window closes: a
// journaled buffer replays its journal on restart and resumes draining, so
// the retried wait eventually vouches for the refs and the commit proceeds
// — recovered is then true. ErrLost and ErrDrainFailed are terminal either
// way: the buffer is answering and disclaiming the data, so waiting longer
// cannot help. Returns (false, nil) immediately without a burst tier.
func waitDrains(p *sim.Proc, bc *burst.Client, refs []storage.ObjRef, route *burstRoute, cfg *Config) (recovered bool, err error) {
	if route == nil {
		return false, nil
	}
	byBuffer := make([][]storage.ObjRef, len(route.buffers))
	for rank, ref := range refs {
		bi := route.assign[rank]
		byBuffer[bi] = append(byBuffer[bi], ref)
	}
	deadline := p.Now().Add(cfg.RecoveryTimeout)
	for bi, group := range byBuffer {
		if len(group) == 0 {
			continue
		}
		retried := false
		for {
			err := bc.DrainWait(p, route.buffers[bi], group, cfg.drainTimeout())
			if err == nil {
				if retried {
					recovered = true
				}
				break
			}
			if !portals.FailStop(err) || cfg.RecoveryTimeout <= 0 || p.Now() >= deadline {
				return recovered, fmt.Errorf("checkpoint: drain wait on buffer %d: %w", bi, err)
			}
			retried = true
			p.Sleep(recoveryPoll)
		}
	}
	return recovered, nil
}

// BufferAssignment spreads ranks across burst buffers deterministically by
// topology distance: each rank, in order, is assigned the nearest buffer
// (node-ID distance, the simulated fabric's locality proxy) that still has
// headroom under the balanced share ceil(ranks/buffers), ties broken by
// buffer index. Neighbouring ranks on one compute node land on the same
// nearby buffer, but — unlike the old rank-modulo rotation applied to a
// contiguous block — no buffer absorbs more than its share, so one crashed
// buffer costs a bounded, topology-local slice of the job, never a
// contiguous rank block picked by arithmetic accident.
func BufferAssignment(nodes []netsim.NodeID, buffers []burst.Target) []int {
	nb := len(buffers)
	if nb == 0 {
		return nil
	}
	capacity := (len(nodes) + nb - 1) / nb
	load := make([]int, nb)
	assign := make([]int, len(nodes))
	for rank, node := range nodes {
		best := -1
		for bi, b := range buffers {
			if load[bi] >= capacity {
				continue
			}
			if best == -1 || dist(node, b.Node) < dist(node, buffers[best].Node) {
				best = bi
			}
		}
		if best == -1 {
			best = rank % nb // unreachable with a positive capacity; be safe
		}
		load[best]++
		assign[rank] = best
	}
	return assign
}

func dist(a, b netsim.NodeID) int {
	if a < b {
		return int(b - a)
	}
	return int(a - b)
}

// placeCopies is the checkpoint's one create-and-write walk: it creates one
// object, walking the rotation from prefer past the servers some rank saw
// die, dumps payload into it and (optionally) syncs it, failing over
// (core.Placement.Walk) to the next server when one stops responding.
// Without a retry policy there are no timeouts, so the walk degenerates to
// the plain happy path.
func placeCopies(p *sim.Proc, c *core.Client, caps core.CapSet, pl *core.Placement, prefer int, payload netsim.Payload, doSync bool, t *ProcTimes) (storage.ObjRef, error) {
	var ref storage.ObjRef // each try's create; the last one landed if Walk succeeds
	err := pl.Walk(c.Servers(), prefer, 1, nil, nil,
		func(tgt storage.Target) (err error) {
			t0 := p.Now()
			if ref, err = c.CreateObjectTxn(p, tgt, caps, pl.Tx); err != nil {
				return err
			}
			t.Create += p.Now().Sub(t0)

			// A server that accepted the create can still die before the
			// dump is durable; the walk gives up on it all the same.
			t1 := p.Now()
			if _, err := c.Write(p, ref, caps, 0, payload); err != nil {
				return err
			}
			t.Write += p.Now().Sub(t1)
			if doSync {
				t2 := p.Now()
				if err := c.Sync(p, tgt, caps); err != nil {
					return err
				}
				t.Sync += p.Now().Sub(t2)
			}
			return nil
		})
	if err != nil {
		return storage.ObjRef{}, fmt.Errorf("checkpoint: placing a copy: %w", err)
	}
	return ref, nil
}

// payloadFor builds rank's dump payload per the config: the verifiable
// deterministic pattern, or a metadata-only synthetic buffer.
func payloadFor(rank int, cfg *Config) netsim.Payload {
	if cfg.PatternData {
		return netsim.BytesPayload(PatternFor(rank, cfg.BytesPerProc))
	}
	return netsim.SyntheticPayload(cfg.BytesPerProc)
}

// rehomeFailed re-dumps every rank whose checkpoint object sits on a server
// some walk gave up on after the dump landed there: if such a server
// crashed, its journal replay resolves the shared transaction by presumed
// abort and deletes the object, so the manifest must not reference it. The
// payloads are regenerable (deterministic pattern or synthetic), so rank 0
// redoes the dumps itself at the commit tail, updating refs in place. A
// re-dump can itself discover new failures, so the scan repeats until every
// reference sits on a healthy server.
func rehomeFailed(p *sim.Proc, c *core.Client, caps core.CapSet, pl *core.Placement, refs []storage.ObjRef, placement int, cfg *Config, t *ProcTimes) error {
	for changed := true; changed; {
		changed = false
		for rank, ref := range refs {
			if !pl.Dead(storage.TargetOf(ref)) {
				continue
			}
			nref, err := placeCopies(p, c, caps, pl, rank+placement, payloadFor(rank, cfg), true, t)
			if err != nil {
				return fmt.Errorf("re-homing rank %d: %w", rank, err)
			}
			refs[rank] = nref
			changed = true
		}
	}
	return nil
}

// publishManifest is the commit tail of a committing dump: write the
// encoded manifest to one object (placeCopies), record it under the
// checkpoint's name and commit through the placement, keeping the re-homed
// refs and the manifest. A mid-commit crash of the manifest's server aborts
// the transaction — never a half-published manifest.
func publishManifest(p *sim.Proc, c *core.Client, caps core.CapSet, pl *core.Placement, placement int, manifest []byte, refs []storage.ObjRef, t *ProcTimes) {
	mdRef, err := placeCopies(p, c, caps, pl, placement, netsim.BytesPayload(manifest), false, t)
	if err != nil {
		panic(fmt.Sprintf("md object: %v", err))
	}
	pl.Kept = append(refs, mdRef)
	if err := c.CreateName(p, "/ckpt-0001", mdRef, pl.Tx); err != nil {
		panic(fmt.Sprintf("name: %v", err))
	}
	if err := pl.Commit(p); err != nil {
		panic(fmt.Sprintf("commit: %v", err))
	}
}
