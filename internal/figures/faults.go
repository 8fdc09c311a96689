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

// The sweep's fixed checkpoint: faultProcs ranks each dump faultBytesPerProc
// (faultRetry's timeout is sized to it) onto faultServers servers.
const (
	faultProcs        = 8
	faultServers      = 4
	faultBytesPerProc = 1 << 20
)

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
	Trials int
	Points []FaultPoint
}

// FaultSweep runs the checkpoint at each drop probability, the clean
// baseline first.
func FaultSweep(env Env) (FaultResult, error) {
	cfg := env.sweepCfg(3)
	points := []FaultPoint{{DropProb: 0}, {DropProb: 0.01}, {DropProb: 0.05}, {DropProb: 0.10}}
	points, _, err := sweep(cfg, points, faultTrial)
	return FaultResult{Trials: cfg.Trials, Points: points}, err
}

func (pt *FaultPoint) label() string   { return fmt.Sprintf("drop=%.2f", pt.DropProb) }
func (pt *FaultPoint) summary() string { return pt.Elapsed.String() + " ms" }

func faultTrial(pt *FaultPoint, trial int, _ bool) ([]MetricsCapture, error) {
	spec := cluster.DevCluster().WithServers(faultServers)
	spec.ComputeNodes = faultProcs
	r := newRig(spec, false)
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
		Procs:        faultProcs,
		BytesPerProc: faultBytesPerProc,
		Seed:         seed,
		Retry:        faultRetry,
	})
	if err != nil {
		return nil, err
	}
	if _, err := r.run(); err != nil {
		return nil, err
	}
	pt.Elapsed.Add(float64(res.Elapsed) / float64(time.Millisecond))
	// Each storage server's own dedup counter, by exact name: rpc.*.deduped
	// would also match the txn participants and capability-cache servers.
	var deduped float64
	for _, srv := range l.Servers {
		deduped += cl.Metrics().Sum("rpc." + srv.Device().Name() + ".deduped")
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
		faultProcs, faultServers, faultBytesPerProc>>20, r.Trials)
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
