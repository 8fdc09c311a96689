package figures

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"lwfs/internal/checkpoint"
	"lwfs/internal/cluster"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/stats"
)

// The fault-injection sweep (experiment E14): run the §4 LWFS checkpoint
// while the links touching the storage nodes drop messages with increasing
// probability, and measure how gracefully completion time degrades. With
// every RPC armed with timeout/retransmit and the servers deduplicating by
// request ID, a lossy fabric costs latency — never correctness: the run
// completes and commits at every loss rate the sweep covers.
//
// The fault rule is scoped to messages touching the storage nodes. The
// control plane (authentication, capability grants, naming, the
// compute-side capability scatter) stays clean: those paths model the
// job-launch side channel of §4 and carry no retransmission protocol.
// Storage-side control RPCs, the server-directed data pulls, and the
// commit protocol all ride through the lossy links.

// FaultOpts parameterize the fault sweep.
type FaultOpts struct {
	DropProbs []float64 // drop probability per point (0 = clean baseline)
	Procs     int
	Servers   int
	Trials    int
	Progress  func(format string, args ...interface{}) // optional
}

// faultBytesPerProc is each rank's dump size; faultRetry's timeout is sized
// to it.
const faultBytesPerProc = 1 << 20

func (o *FaultOpts) defaults() {
	defList(&o.DropProbs, 0, 0.01, 0.05, 0.10)
	def(&o.Procs, 8)
	def(&o.Servers, 4)
	def(&o.Trials, 3)
}

// faultRetry is the client policy for lossy-fabric runs: the timeout covers
// one healthy faultBytesPerProc write (disk time included) so only real
// losses trigger retransmission.
var faultRetry = portals.RetryPolicy{
	MaxAttempts: 6,
	Timeout:     60 * time.Millisecond,
	Backoff:     500 * time.Microsecond,
	MaxBackoff:  4 * time.Millisecond,
	Jitter:      200 * time.Microsecond,
}

// faultGetRetry guards the storage servers' data pulls. One chunk is 1 MB;
// with several ranks sharing a storage node's NIC a pull can take ~20 ms,
// so the timeout must sit well above that or clean runs self-destruct in a
// retransmission storm.
var faultGetRetry = portals.RetryPolicy{
	MaxAttempts: 6,
	Timeout:     30 * time.Millisecond,
	Backoff:     500 * time.Microsecond,
	MaxBackoff:  4 * time.Millisecond,
	Jitter:      200 * time.Microsecond,
}

// FaultPoint is the sweep's measurement at one drop probability.
type FaultPoint struct {
	DropProb float64
	Elapsed  stats.Sample // checkpoint completion, ms
	Dropped  stats.Sample // messages eaten by the fault rule
	Deduped  stats.Sample // retransmissions absorbed by request-ID dedup
}

// FaultResult is the whole sweep.
type FaultResult struct {
	Opts   FaultOpts
	Points []FaultPoint
}

// FaultSweep runs the checkpoint at each drop probability.
func FaultSweep(opts FaultOpts) (FaultResult, error) {
	opts.defaults()
	points := make([]FaultPoint, len(opts.DropProbs))
	for i, dp := range opts.DropProbs {
		points[i].DropProb = dp
	}
	points, _, err := sweep(sweepCfg{Trials: opts.Trials, Progress: opts.Progress}, points, opts.trial)
	return FaultResult{Opts: opts, Points: points}, err
}

func (pt *FaultPoint) label() string   { return fmt.Sprintf("drop=%.2f", pt.DropProb) }
func (pt *FaultPoint) summary() string { return pt.Elapsed.String() + " ms" }

func (opts FaultOpts) trial(pt *FaultPoint, trial int) ([]MetricsCapture, error) {
	spec := cluster.DevCluster().WithServers(opts.Servers)
	spec.ComputeNodes = opts.Procs
	r := newRig(spec)
	cl, l := r.cl, r.l

	seed := int64(trial)*104729 + int64(pt.DropProb*1000) + 11
	cl.Net.SetChaosSeed(seed)
	// Arm the server side: authorization verifies ride the lossy links, and
	// the server-directed write pulls re-request dropped chunks.
	for i, srv := range l.Servers {
		srv.AuthzClient().Caller().SetRetry(faultRetry, sim.NewRand(seed+int64(i)+100))
	}
	for i, ep := range cl.StorageN {
		ep.SetGetRetry(faultGetRetry, sim.NewRand(seed+int64(i)+200))
	}

	var fault *netsim.Fault
	if pt.DropProb > 0 {
		fault = cl.Net.InjectFault(netsim.FaultSpec{GroupA: cl.StorageNodeIDs(), DropProb: pt.DropProb})
	}

	res, err := checkpoint.SetupLWFS(cl, l, checkpoint.Config{
		Procs:        opts.Procs,
		BytesPerProc: faultBytesPerProc,
		Seed:         seed,
		Retry:        faultRetry,
	})
	if err != nil {
		return nil, err
	}
	mc, err := r.run()
	if err != nil {
		return nil, err
	}
	pt.Elapsed.Add(float64(res.Elapsed) / float64(time.Millisecond))
	// Each storage server's own dedup counter, by exact name: rpc.*.deduped
	// would also match the txn participants and capability-cache servers.
	var deduped float64
	for _, srv := range l.Servers {
		deduped += mc.Final.Value("rpc." + srv.Device().Name() + ".deduped")
	}
	pt.Deduped.Add(deduped)
	if fault != nil {
		pt.Dropped.Add(float64(fault.Dropped()))
	} else {
		pt.Dropped.Add(0)
	}
	return nil, nil
}

// Render prints the sweep as a table, with slowdown relative to the clean
// baseline.
func (r FaultResult) Render(w io.Writer) {
	fmt.Fprintf(w, "# Fault injection: %d-process LWFS checkpoint, %d servers, %d MB/process, %d trials\n",
		r.Opts.Procs, r.Opts.Servers, faultBytesPerProc>>20, r.Opts.Trials)
	fmt.Fprintln(w, "# storage-link drop probability vs completion time (graceful degradation, §3/§4)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "drop\telapsed (ms)\tslowdown\tdropped msgs\tdeduped retries")
	base := 0.0
	if len(r.Points) > 0 {
		base = r.Points[0].Elapsed.Mean()
	}
	for _, pt := range r.Points {
		slow := 0.0
		if base > 0 {
			slow = pt.Elapsed.Mean() / base
		}
		fmt.Fprintf(tw, "%.0f%%\t%s\t%.2fx\t%.0f\t%.0f\n",
			pt.DropProb*100, pt.Elapsed.String(), slow, pt.Dropped.Mean(), pt.Deduped.Mean())
	}
	tw.Flush()
}
