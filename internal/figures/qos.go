package figures

import (
	"errors"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"lwfs/internal/checkpoint"
	"lwfs/internal/cluster"
	"lwfs/internal/core"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/qos"
	"lwfs/internal/sim"
	"lwfs/internal/stats"
)

// The multi-tenant QoS sweep (experiment E20), in two parts.
//
// Part A — fair share: a small interactive tenant issues steady 64 KiB
// writes while a large tenant checkpoints through the burst tier with a
// deliberately undersized staging window, so the heavy tenant's traffic
// hits the storage servers simultaneously as synchronous pass-through
// relays AND background drain batches. The headline number is the
// interactive tenant's p99 write latency across three configurations:
// admission control off (FIFO queues), fair-share admission on, and
// fair-share plus the drain scheduler's yield to foreground relays.
//
// Part B — breaker: the interactive tenant again, now failing over between
// two storage servers while its preferred server is down for a window.
// Without a breaker every write during the outage burns the full retry
// budget before rerouting; with one, the circuit opens after the first
// timeouts and the rest of the outage fast-fails (zero wait) onto the
// healthy server.

// Part A's fixed workload.
const (
	qosProcs        = 8       // large-tenant checkpoint processes
	qosServers      = 2       // storage servers
	qosBytesPerProc = 4 << 20 // large-tenant dump size per process
	// qosStageCapacity bounds the burst tier's write-behind window; sized
	// below qosProcs*qosBytesPerProc it forces part of the checkpoint into
	// synchronous pass-through, the interesting contention regime.
	qosStageCapacity   = 8 << 20
	qosInteractiveSize = 64 << 10             // small-tenant write size
	qosInteractiveGap  = 2 * time.Millisecond // small-tenant inter-arrival gap
)

// QoSPoint is part A's measurement for one admission configuration.
type QoSPoint struct {
	Mode    string       // "off", "fair", "fair+prio"
	Lat     stats.Sample // interactive per-op latency, ms, merged over trials
	Durable stats.Sample // large tenant's commit-inclusive time, ms, per trial
	Yields  stats.Sample // drain-yield count per trial
	Shed    stats.Sample // admission sheds per trial (should stay 0)
}

// QoSBreakerPoint is part B's measurement with the breaker off or on.
type QoSBreakerPoint struct {
	Breaker   bool
	Lat       stats.Sample // interactive per-op latency (incl. failover), ms
	Timeouts  stats.Sample // writes that waited out the full retry budget, per trial
	FastFails stats.Sample // attempts refused with zero wait, per trial
}

// QoSResult is the whole E20 sweep.
type QoSResult struct {
	Trials   int
	Points   []QoSPoint
	Breaker  []QoSBreakerPoint
	Captures []MetricsCapture
}

// QoSSweep measures E20. Part A's three configurations flip two knobs:
// per-tenant DRR admission on the storage and burst servers, and drain
// workers yielding to foreground pass-through. With env.Metrics the last
// trial of every part-A mode keeps a registry snapshot pair.
func QoSSweep(env Env) (res QoSResult, err error) {
	cfg := env.sweepCfg(3)
	res.Trials = cfg.Trials
	modes := []QoSPoint{{Mode: "off"}, {Mode: "fair"}, {Mode: "fair+prio"}}
	if res.Points, res.Captures, err = sweep(cfg, modes, qosFairTrial); err != nil {
		return res, err
	}
	res.Breaker, _, err = sweep(cfg, []QoSBreakerPoint{{Breaker: false}, {Breaker: true}}, qosBreakerTrial)
	return res, err
}

func (pt *QoSPoint) label() string { return "qos mode=" + pt.Mode }
func (pt *QoSPoint) summary() string {
	return fmt.Sprintf("interactive p50 %.2f ms p99 %.2f ms, durable %.0f ms",
		pt.Lat.Percentile(50), pt.Lat.Percentile(99), pt.Durable.Mean())
}

func (pt *QoSBreakerPoint) label() string { return fmt.Sprintf("qos breaker=%v", pt.Breaker) }
func (pt *QoSBreakerPoint) summary() string {
	return fmt.Sprintf("p50 %.2f ms p99 %.2f ms, %.0f full-timeout waits",
		pt.Lat.Percentile(50), pt.Lat.Percentile(99), pt.Timeouts.Mean())
}

// qosFairTrial runs one part-A trial: checkpoint through the burst tier with
// an interactive tenant alongside.
func qosFairTrial(pt *QoSPoint, trial int, keep bool) ([]MetricsCapture, error) {
	admission, yield := pt.Mode != "off", pt.Mode == "fair+prio"
	spec := cluster.DevCluster().WithServers(qosServers)
	spec.ComputeNodes = qosProcs + 1 // last node hosts the interactive tenant
	spec.BurstNodes = 1
	spec.Burst.StageCapacity = qosStageCapacity
	spec.Burst.NoDrainYield = !yield
	// One service thread per storage server: requests queue in front of the
	// RPC dispatch (where admission can reorder them) instead of fanning
	// into the device queue. This is the regime the subsystem targets — a
	// server saturated enough that arrival order is the policy.
	spec.Storage.Threads = 1
	if admission {
		adm := &qos.Config{MaxQueue: 1024}
		spec.Storage.QoS = adm
		spec.Burst.QoS = adm
	}
	r := newRig(spec, keep)
	cl, l := r.cl, r.l
	cl.RegisterUser("ia", "s3cret")

	ckRes, err := checkpoint.SetupLWFS(cl, l, checkpoint.Config{
		Procs:        qosProcs,
		BytesPerProc: qosBytesPerProc,
		Seed:         int64(trial)*104729 + 17,
	})
	if err != nil {
		return nil, err
	}

	// The interactive tenant: its own container, steady small writes to
	// server 0, sampled until the big tenant's checkpoint is fully durable
	// (so every sample sees contention; an iteration cap bounds the loop
	// if the checkpoint aborts).
	var trialLat stats.Sample
	var ierr error
	spawn(cl.K, "interactive", &ierr, func(p *sim.Proc) error {
		c := cl.NewClient(l, qosProcs)
		if err := c.Login(p, "ia", "s3cret"); err != nil {
			return err
		}
		ref, caps, err := writableObject(p, c, 0)
		if err != nil {
			return err
		}
		for i := 0; i < 4000 && ckRes.Durable == 0; i++ {
			start := p.Now()
			if _, err := c.Write(p, ref, caps, 0, netsim.SyntheticPayload(qosInteractiveSize)); err != nil {
				return err
			}
			trialLat.Add(float64(p.Now().Sub(start)) / float64(time.Millisecond))
			p.Sleep(qosInteractiveGap)
		}
		return nil
	})
	mc, err := r.run()
	if err != nil {
		return nil, err
	}
	if ierr != nil {
		return nil, fmt.Errorf("interactive tenant: %w", ierr)
	}
	if ckRes.Aborted {
		return nil, errors.New("healthy checkpoint aborted")
	}
	if trialLat.N() < 20 {
		return nil, fmt.Errorf("only %d interactive samples overlapped the checkpoint", trialLat.N())
	}
	pt.Lat.Merge(&trialLat)
	pt.Durable.Add(float64(ckRes.Durable) / float64(time.Millisecond))
	pt.Yields.Add(cl.Metrics().Sum("burst.*.drain.yields"))
	pt.Shed.Add(cl.Metrics().Sum("qos.*.shed"))
	return one(mc), nil
}

// Part B's fixed script: the preferred server is down for this window while
// the interactive tenant keeps writing on a steady clock.
const (
	qosCrashAt   = 30 * time.Millisecond
	qosRestartAt = 130 * time.Millisecond
	qosFlapIters = 250
)

var qosFlapRetry = portals.RetryPolicy{
	MaxAttempts: 2,
	Timeout:     5 * time.Millisecond,
	Backoff:     500 * time.Microsecond,
	MaxBackoff:  time.Millisecond,
	Jitter:      100 * time.Microsecond,
}

// qosBreakerTrial runs one part-B trial: writes with manual failover while
// server 0 is down for a 100 ms window.
func qosBreakerTrial(pt *QoSBreakerPoint, trial int, _ bool) ([]MetricsCapture, error) {
	spec := cluster.DevCluster().WithServers(2)
	spec.ComputeNodes = 1
	r := newRig(spec, false)

	victim := r.l.Servers[0]
	r.cl.K.SpawnAt(sim.Time(0).Add(qosCrashAt), "crash", func(p *sim.Proc) { victim.Crash() })
	r.cl.K.SpawnAt(sim.Time(0).Add(qosRestartAt), "restart", func(p *sim.Proc) {
		if _, err := victim.Restart(p); err != nil {
			panic(err)
		}
	})

	var trialLat stats.Sample
	var timeouts, fastFails int
	_, err := r.bench(qosFlapRetry, int64(trial)*7919+1, func(p *sim.Proc, c *core.Client) error {
		if pt.Breaker {
			c.SetBreaker(qos.BreakerPolicy{Threshold: 2, Cooldown: 10 * time.Millisecond, MaxCooldown: 40 * time.Millisecond})
		}
		refA, caps, err := writableObject(p, c, 0)
		if err != nil {
			return err
		}
		refB, err := c.CreateObject(p, c.Server(1), caps)
		if err != nil {
			return err
		}
		for i := 0; i < qosFlapIters; i++ {
			start := p.Now()
			_, err := c.Write(p, refA, caps, 0, netsim.SyntheticPayload(qosInteractiveSize))
			if err != nil {
				// A fast-fail is fail-stop too: test it first.
				switch {
				case errors.Is(err, portals.ErrCircuitOpen):
					fastFails++
				case portals.FailStop(err):
					timeouts++
				default:
					return err
				}
				if _, err := c.Write(p, refB, caps, 0, netsim.SyntheticPayload(qosInteractiveSize)); err != nil {
					return err
				}
			}
			trialLat.Add(float64(p.Now().Sub(start)) / float64(time.Millisecond))
			p.Sleep(time.Millisecond)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("interactive tenant: %w", err)
	}
	pt.Lat.Merge(&trialLat)
	pt.Timeouts.Add(float64(timeouts))
	pt.FastFails.Add(float64(fastFails))
	return nil, nil
}

// Render prints both E20 tables; the off/fair+prio p99 ratio is the
// acceptance headline.
func (r QoSResult) Render(w io.Writer) {
	fmt.Fprintf(w, "# Multi-tenant QoS: %d-proc x %d MB checkpoint through 1 burst node (%d MB window) vs %d KB interactive writes, %d servers, %d trials\n",
		qosProcs, qosBytesPerProc>>20, qosStageCapacity>>20, qosInteractiveSize>>10, qosServers, r.Trials)
	fmt.Fprintln(w, "# interactive-tenant write latency while the large tenant checkpoints")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "admission\tp50 (ms)\tp99 (ms)\tp99 vs off\tdurable (ms)\tdrain yields\tshed")
	var offP99 float64
	for _, pt := range r.Points {
		if pt.Mode == "off" {
			offP99 = pt.Lat.Percentile(99)
		}
		speedup := "-"
		if pt.Mode != "off" && pt.Lat.Percentile(99) > 0 {
			speedup = fmt.Sprintf("%.1fx", offP99/pt.Lat.Percentile(99))
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%s\t%.0f\t%.0f\t%.0f\n",
			pt.Mode, pt.Lat.Percentile(50), pt.Lat.Percentile(99), speedup,
			pt.Durable.Mean(), pt.Yields.Mean(), pt.Shed.Mean())
	}
	tw.Flush()
	fmt.Fprintf(w, "\n# breaker: failover writes across a %v server outage (%d iterations/trial)\n",
		qosRestartAt-qosCrashAt, qosFlapIters)
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "breaker\tp50 (ms)\tp99 (ms)\tfull-timeout waits\tzero-wait fast-fails")
	for _, pt := range r.Breaker {
		fmt.Fprintf(tw, "%v\t%.2f\t%.2f\t%.1f\t%.1f\n",
			pt.Breaker, pt.Lat.Percentile(50), pt.Lat.Percentile(99), pt.Timeouts.Mean(), pt.FastFails.Mean())
	}
	tw.Flush()
	RenderMetricsCaptures(w, r.Captures)
}
