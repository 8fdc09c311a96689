package figures

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"lwfs/internal/authz"
	"lwfs/internal/cluster"
	"lwfs/internal/core"
	"lwfs/internal/metrics"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
)

// The harness every driver shares. A driver is its point list, its per-trial
// body and its Render: sweep owns the points × trials loop, rig owns the
// machine one trial runs on. Neither knows which experiment is calling; a
// driver that does not fit (Table 1, the bare-fabric half of Table 2, the
// checkpoint package's self-contained runs) simply does not use them.

// sweepCfg is the part of a driver's options the sweep loop reads.
type sweepCfg struct {
	Trials   int
	Metrics  bool
	Progress func(format string, args ...interface{})
}

// sweepCfg is the sweep loop's share of env for a driver that sizes itself:
// env's trial count, or the driver's own when env leaves it at 0.
func (e Env) sweepCfg(trials int) sweepCfg {
	def(&e.Trials, trials)
	return sweepCfg{e.Trials, e.Metrics, e.Progress}
}

// point is what sweep asks of a driver's point type P: a label naming the
// point in errors, progress lines and metrics captures, and a summary of
// its measurements for the progress line.
type point[P any] interface {
	*P
	label() string
	summary() string
}

// sweep runs body for every point × trial; body accumulates its
// measurements into the point, and keep tells it whether sweep keeps the
// captures it returns (cfg.Metrics, on a point's last trial), so a body
// takes no snapshot nobody keeps. Points are independent machines, so they
// run side by side on min(GOMAXPROCS, len(points)) goroutines, claimed in
// input order; the trials of one point stay in order on one goroutine, and
// body must write nothing but its own point. Everything the caller sees is
// in input order and happens on the calling goroutine: a finished point
// reports one progress line once every point before it has, and the kept
// captures come back in point order (one without a label takes the
// point's). An error stops the sweep — points not yet claimed never start —
// and the one returned is the lowest-index point's, labelled with the point
// and trial.
func sweep[P any, PP point[P]](cfg sweepCfg, points []P,
	body func(pt *P, trial int, keep bool) ([]MetricsCapture, error)) ([]P, []MetricsCapture, error) {
	type outcome struct {
		caps []MetricsCapture
		err  error
		done chan struct{} // closed once caps and err are final
	}
	outcomes := make([]outcome, len(points))
	for i := range outcomes {
		outcomes[i].done = make(chan struct{})
	}
	var (
		next   atomic.Int64 // index of the first unclaimed point
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	runPoint := func(i int) {
		out := &outcomes[i]
		defer close(out.done)
		for trial := 0; trial < cfg.Trials; trial++ {
			keep := cfg.Metrics && trial == cfg.Trials-1
			caps, err := body(&points[i], trial, keep)
			if err != nil {
				out.err = fmt.Errorf("%s trial %d: %w", PP(&points[i]).label(), trial, err)
				failed.Store(true)
				return
			}
			if keep {
				out.caps = caps
			}
		}
	}
	for w := min(runtime.GOMAXPROCS(0), len(points)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(points) {
					return
				}
				runPoint(i)
			}
		}()
	}
	defer wg.Wait() // no body is still writing its point when sweep returns

	// Points are claimed in index order, so every point before a failed one
	// was claimed too and finishes: this loop meets the lowest-index error
	// before it could wait on a point that never started.
	var kept []MetricsCapture
	for i := range points {
		out := &outcomes[i]
		<-out.done
		if out.err != nil {
			return points, kept, out.err
		}
		pt := PP(&points[i])
		for _, mc := range out.caps {
			if mc.Label == "" {
				mc.Label = pt.label()
			}
			kept = append(kept, mc)
		}
		if cfg.Progress != nil {
			cfg.Progress("%s: %s", pt.label(), pt.summary())
		}
	}
	return points, kept, nil
}

// The principal every rig registers and its bench client logs in as.
const (
	benchUser   = "app"
	benchSecret = "s3cret"
)

// rig is the machine one trial runs on: a cluster built from a spec, the
// bench user registered, the LWFS core deployed and, when its sweep keeps
// the trial's capture, the registry snapshot that capture diffs against.
type rig struct {
	cl   *cluster.Cluster
	l    *cluster.LWFS
	keep bool // take the capture's snapshots
	base metrics.Snapshot
}

// newRig builds a trial's machine; keep is sweep's: whether anyone keeps the
// capture run returns. A driver that needs a value or two reads them from
// the registry (Sum, MergedHist) instead of from a capture.
func newRig(spec cluster.Spec, keep bool) *rig {
	cl := cluster.New(spec)
	cl.RegisterUser(benchUser, benchSecret)
	r := &rig{cl: cl, l: cl.DeployLWFS(), keep: keep}
	if keep {
		r.base = cl.Metrics().Snapshot()
	}
	return r
}

// run drains the simulation, pairs the post-deploy snapshot with the final
// one when the rig keeps them (an empty capture otherwise) and closes the
// cluster: a rig runs once, and what a driver reads from it afterwards
// (results, registry values, device and NIC busy time) outlives the kernel.
func (r *rig) run() (MetricsCapture, error) {
	defer r.cl.Close()
	if err := r.cl.Run(); err != nil || !r.keep {
		return MetricsCapture{}, err
	}
	return MetricsCapture{Base: r.base, Final: r.cl.Metrics().Snapshot()}, nil
}

// bench puts a client on compute node 0 — armed with retry (its backoff
// jitter keyed by seed) unless the policy is zero — logs it in from a
// spawned process, hands both to body and runs the simulation. body's error
// is the trial's, after any the kernel itself reports.
func (r *rig) bench(retry portals.RetryPolicy, seed int64, body func(p *sim.Proc, c *core.Client) error) (MetricsCapture, error) {
	c := r.cl.NewClient(r.l, 0)
	if retry.Enabled() {
		c.SetRetry(retry, seed)
	}
	var bodyErr error
	spawn(r.cl.K, "bench", &bodyErr, func(p *sim.Proc) error {
		if err := c.Login(p, benchUser, benchSecret); err != nil {
			return fmt.Errorf("login: %w", err)
		}
		return body(p, c)
	})
	mc, err := r.run()
	if err != nil {
		return mc, err
	}
	return mc, bodyErr
}

// spawn starts fn as a simulated process and leaves its error in *errp, to
// be read once the kernel has run.
func spawn(k *sim.Kernel, name string, errp *error, fn func(p *sim.Proc) error) {
	k.Spawn(name, func(p *sim.Proc) { *errp = fn(p) })
}

// allCaps gives a logged-in client a fresh container and every capability
// on it.
func allCaps(p *sim.Proc, c *core.Client) (core.CapSet, error) {
	cid, err := c.CreateContainer(p)
	if err != nil {
		return core.CapSet{}, fmt.Errorf("container: %w", err)
	}
	caps, err := c.GetCaps(p, cid, authz.AllOps...)
	if err != nil {
		return core.CapSet{}, fmt.Errorf("caps: %w", err)
	}
	return caps, nil
}

// writableObject gives a logged-in client a fresh container, create and
// write capabilities on it, and one object on storage server i.
func writableObject(p *sim.Proc, c *core.Client, i int) (storage.ObjRef, core.CapSet, error) {
	cid, err := c.CreateContainer(p)
	if err != nil {
		return storage.ObjRef{}, core.CapSet{}, err
	}
	caps, err := c.GetCaps(p, cid, authz.OpCreate, authz.OpWrite)
	if err != nil {
		return storage.ObjRef{}, caps, err
	}
	ref, err := c.CreateObject(p, c.Server(i), caps)
	return ref, caps, err
}

// noRetry leaves a bench client's RPCs unarmed: a lost message would hang,
// which is what a healthy-fabric measurement wants to hear about.
var noRetry portals.RetryPolicy

// def fills an option left at its zero value.
func def[T comparable](opt *T, value T) {
	var zero T
	if *opt == zero {
		*opt = value
	}
}

// defList fills a list option left empty.
func defList[T any](opt *[]T, values ...T) {
	if len(*opt) == 0 {
		*opt = values
	}
}

// one wraps a trial's single capture for sweep.
func one(mc MetricsCapture) []MetricsCapture { return []MetricsCapture{mc} }
