// Sampled-rank mode: machine-scale checkpoint runs without machine-scale
// process counts.
//
// A full Red Storm job is ~100k ranks; simulating each as a process with
// its own client stack is feasible into the tens of thousands but wasteful
// beyond — past the point where the I/O partition saturates, additional
// ranks contribute queueing load, not new protocol behavior. Sampled mode
// therefore splits a TotalRanks-rank job in two:
//
//   - Config.Procs ranks run *exactly*: full client stack, capabilities,
//     transaction, gather, manifest commit. Everything the paper's Figure 8
//     pseudocode does, these ranks do.
//   - The remaining TotalRanks-Procs "shadow" ranks are modeled as
//     calibrated synthetic load: their checkpoint bytes are injected into
//     the very same storage (and burst) ingress paths the exact ranks use,
//     chunk by chunk, paying real NIC serialization on the target node,
//     real disk service time on the target device, and real acks back —
//     so the exact ranks see the queueing the full job would impose.
//
// Shadow traffic originates from a few aggregate injector nodes whose NIC
// bandwidth is scaled by the number of ranks each stands for (the compute
// partition's aggregate egress vastly exceeds the I/O partition's ingress,
// so the injector NIC is never the bottleneck — matching the real machine,
// where it is the I/O partition that saturates). Each injector runs a small
// number of concurrent streams per target; a stream writes its assigned
// ranks' bytes sequentially, one chunk in flight at a time, which mirrors
// the server-directed flow control of the real protocol (a rank has one
// outstanding server pull).
//
// What shadow ranks do NOT pay, and therefore the model's error bound:
// per-rank authentication/capability traffic (amortized control-plane cost,
// one request burst at job start), transaction enlistment, and the metadata
// gather (rank-count-proportional message count but tiny bytes). Those
// flows are exercised — at reduced scale — by the exact ranks. The data
// plane, where >99% of the bytes and the queueing live, is modeled
// honestly. Calibration: run the same Procs both exact-only and sampled
// (TotalRanks == Procs with a 50/50 split) and compare dump times; see
// DESIGN.md §4.12.
//
// In burst mode shadow chunks target a shadow staging sink on each buffer
// node: the ack returns after a parse cost (memory-speed staging), and a
// per-buffer drain pipeline forwards the staged chunks to the storage
// sinks, bounded by a staging-window resource so a full buffer
// backpressures the injectors — apparent checkpoint time then degrades
// from NIC-limited to drain-limited exactly as the real tier's
// StageCapacity window does.
package checkpoint

import (
	"errors"
	"fmt"
	"time"

	"lwfs/internal/burst"
	"lwfs/internal/cluster"
	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
)

// shadowPortalBase is where shadow sinks attach on storage/burst node
// endpoints: well above the service portals (storage at 20+4i, burst at
// its default triple) and below the reserved reply portal (1022).
const shadowPortalBase portals.Index = 900

// shadowAckSize is the wire size of a shadow staging/drain ack.
const shadowAckSize int64 = 32

// shadowContainer tags shadow objects on storage devices.
const shadowContainer osd.ContainerID = 0x5AD0

// shadowSources is the number of aggregate injector nodes standing in for
// the shadow ranks' compute nodes. Each gets NIC bandwidth scaled by the
// ranks it represents.
const shadowSources = 8

// shadowStreams is the number of concurrent shadow streams per target
// (storage server, or burst buffer in burst mode). Streams write their
// ranks sequentially with one chunk outstanding, so this bounds shadow
// data-plane concurrency per target.
const shadowStreams = 2

// shadowChunkSize is the shadow wire chunk: the storage tier's default
// transfer granularity.
const shadowChunkSize int64 = 1 << 20

// SampledLoad is the deployed shadow load's observability handle. All
// fields are settled once the simulation has run.
type SampledLoad struct {
	ShadowRanks int   // ranks modeled as load
	Bytes       int64 // total shadow bytes

	k       *sim.Kernel
	acked   int64    // bytes acknowledged to an injector (staged, in burst mode)
	drained int64    // bytes written to a storage disk
	errs    int      // failed shadow RPCs (healthy runs: 0)
	lastAck sim.Time // instant of the last staging ack
	lastDur sim.Time // instant of the last shadow byte's disk write (+ final sync)
}

// ApparentEnd is when the last shadow chunk was acknowledged to its
// injector — the shadow analogue of a rank's dump completing (in burst
// mode: staged, not yet durable).
func (sl *SampledLoad) ApparentEnd() sim.Time { return sl.lastAck }

// DurableEnd is when the last shadow byte hit a storage disk (including
// the final flush barrier).
func (sl *SampledLoad) DurableEnd() sim.Time { return sl.lastDur }

// Errs reports failed shadow RPCs; non-zero means the run cannot be
// trusted as a healthy-path measurement.
func (sl *SampledLoad) Errs() int { return sl.errs }

// Complete reports whether every shadow byte was both acked and drained.
func (sl *SampledLoad) Complete() bool {
	return sl.acked == sl.Bytes && sl.drained == sl.Bytes
}

// shadowChunk is the one-RPC unit of shadow load.
type shadowChunk struct {
	Size int64
}

type shadowAck struct{}

// shadowSink lands shadow chunks on one storage server's device: each
// chunk pays the device's per-op overhead plus size/bandwidth on the same
// disk FIFO the exact ranks' writes queue on. All chunks overwrite offset 0
// of one object — the disk *time* is what matters, and a machine-size
// shadow dump must not materialize machine-size state.
type shadowSink struct {
	load *SampledLoad
	dev  *osd.Device
	obj  osd.ObjectID
	have bool
}

func (s *shadowSink) handle(p *sim.Proc, from netsim.NodeID, req interface{}) (interface{}, error) {
	c := req.(shadowChunk)
	if !s.have {
		s.obj = s.dev.Create(p, shadowContainer).ID
		s.have = true
	}
	if err := s.dev.Write(p, s.obj, 0, netsim.SyntheticPayload(c.Size)); err != nil {
		return nil, err
	}
	sl := s.load
	sl.drained += c.Size
	if sl.drained == sl.Bytes {
		// Mirror the direct dump's sync: the last shadow write pays the flush
		// barrier, so DurableEnd is fsync-inclusive.
		s.dev.Sync(p)
	}
	sl.lastDur = sl.k.Now()
	return shadowAck{}, nil
}

// shadowBuffer stages shadow chunks on a burst node: the ack returns after
// a parse cost (the bytes are in buffer memory), and the chunk joins the
// buffer's drain queue. The window resource bounds staged-but-undrained
// bytes: a full buffer stalls the ack, backpressuring injectors — the
// shadow analogue of the real tier's StageCapacity write-behind window.
type shadowBuffer struct {
	q      *sim.Mailbox
	window *sim.Resource
	next   int // round-robin drain-target cursor
}

func (b *shadowBuffer) handle(p *sim.Proc, from netsim.NodeID, req interface{}) (interface{}, error) {
	c := req.(shadowChunk)
	p.Sleep(burst.OpCost)
	b.window.Acquire(p, c.Size)
	b.q.Send(c)
	return shadowAck{}, nil
}

// shadowTarget names a shadow sink.
type shadowTarget struct {
	node netsim.NodeID
	port portals.Index
}

// DeploySampled installs the shadow load of cfg.TotalRanks-cfg.Procs ranks on a deployed cluster:
// shadow sinks on every storage server (and burst buffer), aggregate
// injector nodes, and the stream processes that push the shadow ranks'
// bytes once the simulation runs. Call after DeployLWFS and before
// cl.Run, alongside SetupLWFS, which drives the exact ranks:
//
//	cl := cluster.New(spec)
//	defer cl.Close()
//	cl.RegisterUser("app", "s3cret")
//	l := cl.DeployLWFS()
//	sl, err := checkpoint.DeploySampled(cl, l, cfg)
//	res, err := checkpoint.SetupLWFS(cl, l, cfg)
//	err = cl.Run()
//
// The returned SampledLoad settles once cl.Run returns. Shadow placement,
// stream stagger and all other randomness derive from cfg.Seed, so
// sampled runs are as deterministic as exact ones.
func DeploySampled(cl *cluster.Cluster, l *cluster.LWFS, cfg Config) (*SampledLoad, error) {
	if cfg.TotalRanks == 0 {
		return nil, errors.New("checkpoint: DeploySampled requires Config.TotalRanks")
	}
	shadow := cfg.TotalRanks - cfg.Procs
	if shadow < 0 {
		return nil, fmt.Errorf("checkpoint: TotalRanks %d < Procs %d", cfg.TotalRanks, cfg.Procs)
	}
	sl := &SampledLoad{ShadowRanks: shadow, Bytes: int64(shadow) * cfg.BytesPerProc, k: cl.K}
	if shadow == 0 || cfg.BytesPerProc == 0 {
		return sl, nil
	}
	k := cl.K
	reg := cl.Metrics()
	reg.GaugeFunc("shadow.bytes_acked", func() int64 { return sl.acked })
	reg.GaugeFunc("shadow.bytes_durable", func() int64 { return sl.drained })

	// The shadow drain concurrency per buffer matches the real tier's.
	drains := cl.Spec.Burst.DrainWorkers

	// One shadow sink per storage server, attached on the server's node
	// endpoint so chunks pay that node's real NIC ingress.
	spn := cl.Spec.ServersPerNode
	storTargets := make([]shadowTarget, len(l.Servers))
	for i, s := range l.Servers {
		sink := &shadowSink{load: sl, dev: s.Device()}
		port := shadowPortalBase + portals.Index(i%spn)
		portals.Serve(cl.StorageN[i/spn], port, fmt.Sprintf("shadow/osd%d.%d", i/spn, i%spn),
			shadowStreams+drains, sink.handle)
		storTargets[i] = shadowTarget{node: s.Node(), port: port}
	}

	// Injector targets: buffers in burst mode, storage servers otherwise.
	targets := storTargets
	burstMode := len(l.Burst) > 0
	nchunksPerRank := int((cfg.BytesPerProc + shadowChunkSize - 1) / shadowChunkSize)
	if burstMode {
		// Staged-but-undrained shadow bytes per buffer are bounded like the
		// real tier's, by the stage capacity; past it the staging ack
		// backpressures.
		window := max(cl.Spec.Burst.StageCapacity, shadowChunkSize)
		targets = make([]shadowTarget, len(l.Burst))
		nbuf := len(l.Burst)
		for bi, bs := range l.Burst {
			buf := &shadowBuffer{
				q:      sim.NewMailbox(k, fmt.Sprintf("shadow/bb%d.drainq", bi)),
				window: sim.NewResource(k, fmt.Sprintf("shadow/bb%d.window", bi), window),
			}
			portals.Serve(cl.BurstN[bi], shadowPortalBase, fmt.Sprintf("shadow/bb%d", bi),
				shadowStreams+2, buf.handle)
			targets[bi] = shadowTarget{node: bs.Node(), port: shadowPortalBase}

			// Drain pipeline: forward staged chunks to the storage sinks,
			// round-robin, paying buffer egress + storage ingress + disk —
			// contending with the real tier's drains on the same NIC.
			ranksHere := shadow/nbuf + btoi(bi < shadow%nbuf)
			chunksHere := ranksHere * nchunksPerRank
			caller := portals.NewCaller(cl.BurstN[bi])
			for w := 0; w < drains; w++ {
				quota := chunksHere/drains + btoi(w < chunksHere%drains)
				if quota == 0 {
					continue
				}
				cl.Spawn(fmt.Sprintf("shadow/bb%d.drain%d", bi, w), func(p *sim.Proc) {
					for i := 0; i < quota; i++ {
						c := buf.q.Recv(p).(shadowChunk)
						tgt := storTargets[(bi+buf.next)%len(storTargets)]
						buf.next++
						if _, err := caller.CallTimeout(p, tgt.node, tgt.port, c, c.Size, shadowAckSize, 0); err != nil {
							sl.errs++
						}
						buf.window.Release(c.Size)
					}
				})
			}
		}
	}

	// Aggregate injector nodes: each stands for its share of the shadow
	// ranks, with NIC bandwidth scaled to match (the compute partition's
	// aggregate egress must not be the bottleneck — on the real machine
	// it never is; the I/O partition saturates first).
	nsrc := min(shadowSources, shadow)
	perSource := float64((shadow + nsrc - 1) / nsrc)
	callers := make([]*portals.Caller, nsrc)
	for i := 0; i < nsrc; i++ {
		nd := cl.Net.AddNode(fmt.Sprintf("shadow%d", i), netsim.Config{
			EgressBW:   cl.Spec.NICBandwidth * perSource,
			IngressBW:  cl.Spec.NICBandwidth * perSource,
			SWOverhead: cl.Spec.SWOverhead,
		})
		callers[i] = portals.NewCaller(portals.NewEndpoint(cl.Net, nd))
	}

	// Streams: per target, shadowStreams sequential-rank writers, started
	// with the same jitter window the exact ranks use.
	jmax := cfg.JitterMax
	if jmax <= 0 {
		jmax = time.Millisecond
	}
	rng := sim.NewRand(cfg.Seed ^ 0x5ad0_5eed)
	size := cfg.BytesPerProc // the stream closures capture this: a captured cfg is copied into each
	src := 0
	for ti := range targets {
		tgt := targets[ti]
		ranksHere := shadow/len(targets) + btoi(ti < shadow%len(targets))
		for s := 0; s < shadowStreams; s++ {
			myRanks := ranksHere/shadowStreams + btoi(s < ranksHere%shadowStreams)
			delay := rng.Duration(jmax)
			if myRanks == 0 {
				continue
			}
			caller := callers[src%nsrc]
			src++
			cl.Spawn(fmt.Sprintf("shadow/t%d.s%d", ti, s), func(p *sim.Proc) {
				p.Sleep(delay)
				for r := 0; r < myRanks; r++ {
					for rem := size; rem > 0; {
						n := shadowChunkSize
						if rem < n {
							n = rem
						}
						if _, err := caller.CallTimeout(p, tgt.node, tgt.port, shadowChunk{Size: n}, n, shadowAckSize, 0); err != nil {
							sl.errs++
							return
						}
						rem -= n
						sl.acked += n
						sl.lastAck = k.Now()
					}
				}
			})
		}
	}
	return sl, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
