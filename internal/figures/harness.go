package figures

import (
	"fmt"

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

// sweepCfg is the part of a driver's Opts the sweep loop reads.
type sweepCfg struct {
	Trials   int
	Metrics  bool
	Progress func(format string, args ...interface{})
}

// point is what sweep asks of a driver's point type P: a label naming the
// point in errors, progress lines and metrics captures, and a summary of
// its measurements for the progress line.
type point[P any] interface {
	*P
	label() string
	summary() string
}

// sweep runs body for every point × trial, in order; body accumulates its
// measurements into the point. An error stops the sweep and is labelled
// with the point and trial. A finished point reports one progress line.
// With cfg.Metrics the captures returned by the last trial of each point
// are kept; one without a label takes the point's.
func sweep[P any, PP point[P]](cfg sweepCfg, points []P,
	body func(pt *P, trial int) ([]MetricsCapture, error)) ([]P, []MetricsCapture, error) {
	var kept []MetricsCapture
	for i := range points {
		pt := PP(&points[i])
		for trial := 0; trial < cfg.Trials; trial++ {
			caps, err := body(&points[i], trial)
			if err != nil {
				return points, kept, fmt.Errorf("%s trial %d: %w", pt.label(), trial, err)
			}
			if !cfg.Metrics || trial != cfg.Trials-1 {
				continue
			}
			for _, mc := range caps {
				if mc.Label == "" {
					mc.Label = pt.label()
				}
				kept = append(kept, mc)
			}
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
// bench user registered, the LWFS core deployed, and the registry snapshot
// every capture diffs against.
type rig struct {
	cl   *cluster.Cluster
	l    *cluster.LWFS
	base metrics.Snapshot
}

func newRig(spec cluster.Spec) *rig {
	cl := cluster.New(spec)
	cl.RegisterUser(benchUser, benchSecret)
	l := cl.DeployLWFS()
	return &rig{cl: cl, l: l, base: cl.Metrics().Snapshot()}
}

// run drains the simulation and pairs the post-deploy snapshot with the
// final one.
func (r *rig) run() (MetricsCapture, error) {
	if err := r.cl.Run(); err != nil {
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
