package trace_test

import (
	"bytes"
	"testing"
	"time"

	"lwfs/internal/cluster"
	"lwfs/internal/lwfspfs"
	"lwfs/internal/metrics"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/stdfs"
	"lwfs/internal/testrig"
	"lwfs/internal/trace"
)

// pfsRetry arms replay clients the way the pfs tests do: fast timeouts so
// a chaos run that kills a server fails loudly instead of hanging.
var pfsRetry = portals.RetryPolicy{
	MaxAttempts: 2,
	Timeout:     25 * time.Millisecond,
	Backoff:     time.Millisecond,
	Jitter:      100 * time.Microsecond,
}

// TestReplayDeterminism is the chaos-matrix smoke for the replayer: the
// same trace against the same cluster must produce a bit-identical final
// metrics snapshot, run after run. The simulation's whole value as a
// benchmark rests on this — if two replays of one recording diverge, every
// experiment table built on them is noise. The chaos seed shifts the
// retry-jitter stream between CI runs; determinism must hold at any seed.
func TestReplayDeterminism(t *testing.T) {
	seed := testrig.SeedFromEnv(1)
	tr, err := trace.Example("jacobi")
	if err != nil {
		t.Fatal(err)
	}
	snap := func() []byte {
		spec := cluster.DevCluster()
		spec.ComputeNodes = 4
		spec = spec.WithServers(4)
		cl := cluster.New(spec)
		cl.RegisterUser("app", "s3cret")
		lw := cl.DeployLWFS()
		workerC := 4
		var res *trace.Result
		setupC := cl.NewClient(lw, 0)
		cl.Spawn("setup", func(p *sim.Proc) {
			if err := setupC.Login(p, "app", "s3cret"); err != nil {
				t.Error(err)
				return
			}
			pfs, err := lwfspfs.Format(p, setupC, "/replay", lwfspfs.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			cid := pfs.Container()
			next := 0
			mount := func(wp *sim.Proc) (trace.Mount, error) {
				c := cl.NewClient(lw, next)
				c.SetRetry(pfsRetry, seed+int64(next))
				next++
				if err := c.Login(wp, "app", "s3cret"); err != nil {
					return nil, err
				}
				wfs, err := lwfspfs.Mount(wp, c, "/replay", cid)
				if err != nil {
					return nil, err
				}
				return stdfs.New(wp, wfs).ReplayMount(), nil
			}
			res = trace.StartReplay(cl.K, tr, mount, trace.Options{
				Concurrency: workerC,
				Clones:      workerC,
				Metrics:     cl.Metrics(),
			})
		})
		if err := cl.Run(); err != nil {
			t.Fatal(err)
		}
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		if res.Ops != workerC*len(tr.Events) {
			t.Fatalf("ops = %d, want %d", res.Ops, workerC*len(tr.Events))
		}
		var buf bytes.Buffer
		cl.Metrics().Snapshot().Diff(metrics.Snapshot{}).WriteTable(&buf)
		return buf.Bytes()
	}
	first := snap()
	second := snap()
	if !bytes.Equal(first, second) {
		t.Fatalf("replay not deterministic: snapshots differ\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}
