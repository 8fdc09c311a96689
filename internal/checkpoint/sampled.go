// Sampled-rank mode: machine-scale checkpoint runs without machine-scale
// process counts.
//
// A full Red Storm job is ~100k ranks; simulating each as a process with
// its own client stack is feasible into the tens of thousands but wasteful
// beyond — past the point where the I/O partition saturates, additional
// ranks contribute queueing load, not new protocol behavior. So
// Config.TotalRanks alone splits a job in two, and SetupLWFS runs both
// halves, the shadow load deployed before anything of its own:
//
//   - Config.Procs ranks run *exactly*: full client stack, capabilities,
//     transaction, gather, manifest commit — the paper's Figure 8.
//   - The remaining TotalRanks-Procs "shadow" ranks are calibrated
//     synthetic load: their bytes enter the very storage (and burst)
//     ingress paths the exact ranks use, chunk by chunk, paying real NIC
//     serialization, real disk service time and real acks — so the exact
//     ranks see the queueing the full job would impose.
//
// Shadow traffic comes from a few aggregate injector nodes whose NIC
// bandwidth is scaled by the ranks each stands for (on the real machine
// the I/O partition saturates first). Each injector runs a few streams per
// target, started in the exact ranks' jitter window; a stream writes its
// ranks' bytes one chunk in flight at a time, as a rank has one
// outstanding server pull. In burst mode chunks stage on a sink on each
// buffer node (acked after a parse cost) and a per-buffer drain pipeline
// forwards them to the storage sinks, bounded by a staging window, so a
// full buffer backpressures the injectors as the real StageCapacity does.
//
// The Result is job-wide: shadow acks raise Elapsed, shadow disk writes
// raise Durable. Shadow progress is the shadow.bytes_acked and
// shadow.bytes_durable gauges, and a failed shadow RPC panics its process,
// so cl.Run reports it as it reports a failed exact rank. What shadow ranks
// do not pay — authentication, capabilities, enlistment, the metadata
// gather — is control-plane traffic the exact ranks still exercise; that
// is the model's error bound (TestSampledCalibration; DESIGN.md §4.12).
package checkpoint

import (
	"fmt"

	"lwfs/internal/burst"
	"lwfs/internal/cluster"
	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
)

// shadowPortalBase is where shadow sinks attach on storage/burst node
// endpoints: well above the service portals (storage at 20+4i, burst at
// burst.Portal) and below portals.ReplyPortal (1022).
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

// shadowLoad is the shadow ranks' share of a run: what has been acked and
// written so far (the shadow.* gauges), and the job-wide Result their
// instants fold into, which holds their byte count.
type shadowLoad struct {
	res     *Result
	chunk   int64 // the shadow wire chunk: the storage tier's ChunkSize
	acked   int64 // bytes acknowledged to an injector (staged, in burst mode)
	drained int64 // bytes written to a storage disk
}

// shadowChunk is the one-RPC unit of shadow load.
type shadowChunk struct {
	Size int64
}

// opShadowChunk sends one chunk, to a shadow sink or a shadow buffer; each
// answers it with an empty ack.
var (
	opShadowChunk = portals.NewOp[shadowChunk, struct{}]()
	sinkOps       = portals.NewOps(portals.Handle(opShadowChunk, (*shadowSink).handle))
	bufferOps     = portals.NewOps(portals.Handle(opShadowChunk, (*shadowBuffer).handle))
)

// shadowSink lands shadow chunks on one storage server's device: each
// chunk pays the device's per-op overhead plus size/bandwidth on the same
// disk FIFO the exact ranks' writes queue on. All chunks overwrite offset 0
// of one object — the disk *time* is what matters, and a machine-size
// shadow dump must not materialize machine-size state.
type shadowSink struct {
	load *shadowLoad
	dev  *osd.Device
	obj  osd.ObjectID
	have bool
}

func (s *shadowSink) handle(p *sim.Proc, _ netsim.NodeID, c *shadowChunk) (struct{}, error) {
	if !s.have {
		s.obj = s.dev.Create(p, shadowContainer).ID
		s.have = true
	}
	if err := s.dev.Write(p, s.obj, 0, netsim.SyntheticPayload(c.Size)); err != nil {
		return struct{}{}, err
	}
	sl := s.load
	sl.drained += c.Size
	if sl.drained == sl.res.shadowBytes {
		// Mirror the direct dump's sync: the last shadow write pays the flush
		// barrier, so the job's Durable is fsync-inclusive.
		s.dev.Sync(p)
	}
	sl.res.Durable = max(sl.res.Durable, p.Now().Duration())
	return struct{}{}, nil
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

func (b *shadowBuffer) handle(p *sim.Proc, _ netsim.NodeID, c *shadowChunk) (struct{}, error) {
	p.Sleep(burst.OpCost)
	b.window.Acquire(p, c.Size)
	b.q.Send(*c)
	return struct{}{}, nil
}

// deployShadow installs the shadow load of cfg.TotalRanks-cfg.Procs ranks
// on a deployed cluster — shadow sinks on every storage server (and burst
// buffer), aggregate injector nodes, and the stream processes that push
// the shadow ranks' bytes once the simulation runs — folding their instants
// into res. Without shadow ranks or bytes it installs nothing. Shadow
// placement, stream stagger and all other randomness derive from cfg.Seed,
// so sampled runs are as deterministic as exact ones.
func deployShadow(cl *cluster.Cluster, l *cluster.LWFS, cfg *Config, res *Result) {
	shadow := cfg.TotalRanks - cfg.Procs
	if shadow <= 0 || cfg.BytesPerProc == 0 {
		return
	}
	res.shadowBytes = int64(shadow) * cfg.BytesPerProc
	sl := &shadowLoad{res: res, chunk: cl.Spec.Storage.ChunkSize}
	k := cl.K
	reg := cl.Metrics()
	reg.GaugeFunc("shadow.bytes_acked", func() int64 { return sl.acked })
	reg.GaugeFunc("shadow.bytes_durable", func() int64 { return sl.drained })

	// The shadow drain concurrency per buffer matches the real tier's.
	drains := cl.Spec.Burst.DrainWorkers

	// One shadow sink per storage server, attached on the server's node
	// endpoint so chunks pay that node's real NIC ingress.
	spn := cl.Spec.ServersPerNode
	storTargets := make([]storage.Target, len(l.Servers))
	for i, s := range l.Servers {
		sink := &shadowSink{load: sl, dev: s.Device()}
		port := shadowPortalBase + portals.Index(i%spn)
		portals.ServeOps(cl.StorageN[i/spn], port, fmt.Sprintf("shadow/osd%d.%d", i/spn, i%spn),
			shadowStreams+drains, sinkOps, sink)
		storTargets[i] = storage.Target{Node: s.Node(), Port: port}
	}

	// Injector targets: buffers in burst mode, storage servers otherwise.
	targets := storTargets
	nchunksPerRank := int((cfg.BytesPerProc + sl.chunk - 1) / sl.chunk)
	if len(l.Burst) > 0 {
		// Staged-but-undrained shadow bytes per buffer are bounded like the
		// real tier's, by the stage capacity; past it the staging ack
		// backpressures.
		window := max(cl.Spec.Burst.StageCapacity, sl.chunk)
		targets = make([]storage.Target, len(l.Burst))
		nbuf := len(l.Burst)
		for bi, bs := range l.Burst {
			buf := &shadowBuffer{
				q:      sim.NewMailbox(k, fmt.Sprintf("shadow/bb%d.drainq", bi)),
				window: sim.NewResource(k, fmt.Sprintf("shadow/bb%d.window", bi), window),
			}
			portals.ServeOps(cl.BurstN[bi], shadowPortalBase, fmt.Sprintf("shadow/bb%d", bi),
				shadowStreams+2, bufferOps, buf)
			targets[bi] = storage.Target{Node: bs.Node(), Port: shadowPortalBase}

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
						if _, err := portals.InvokeTimeout(caller, p, tgt.Node, tgt.Port, opShadowChunk, &c, c.Size, shadowAckSize, 0); err != nil {
							panic(err) // the process name says which shadow drain
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
	jmax := cfg.jitter()
	rng := sim.NewRand(cfg.Seed ^ 0x5ad0_5eed)
	size := cfg.BytesPerProc // the stream closures capture this, not cfg
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
						n := min(rem, sl.chunk)
						if _, err := portals.InvokeTimeout(caller, p, tgt.Node, tgt.Port, opShadowChunk, &shadowChunk{Size: n}, n, shadowAckSize, 0); err != nil {
							panic(err) // the process name says which shadow stream
						}
						rem -= n
						sl.acked += n
						sl.res.Elapsed = max(sl.res.Elapsed, p.Now().Duration())
					}
				}
			})
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
