package checkpoint_test

import (
	"bytes"
	"cmp"
	"fmt"
	"testing"
	"time"

	"lwfs/internal/authz"
	"lwfs/internal/cluster"
	"lwfs/internal/lwfspfs"
	"lwfs/internal/netsim"
	"lwfs/internal/sim"
	"lwfs/internal/stripe"
	"lwfs/internal/testrig"
	"lwfs/internal/trace"
)

// redundantChaosSpec: four single-server storage nodes, so one crash takes
// out a whole placement target and every redundant file touching it loses
// exactly one member.
func redundantChaosSpec() cluster.Spec {
	spec := cluster.DevCluster()
	spec.ComputeNodes = 4
	spec.ServersPerNode = 1
	return spec.WithServers(4)
}

// rankFiles is what one redundant-checkpoint chaos run observed.
type rankFiles struct {
	errs     []error // per rank: the first error its dump or its read-back returned
	degraded float64 // stripe.*.degraded_reads across the cluster after the run
}

// runRedundantChaos checkpoints four ranks into one lwfspfs file each: rank
// 0 formats the volume with opts, every rank mounts it with its own client,
// creates /rank-N and dumps its 2 MB pattern with one WriteAt, a Sync and a
// Close. Server 1 crashes a seed-shifted 1–5 ms after the last create —
// mid-dump — and never restarts. A fifth client then mounts the volume and
// reads every file back. A rank whose WriteAt, Sync and Close were
// acknowledged must read back bit-exact or fail detectably; a silently wrong
// read fails the test here.
func runRedundantChaos(t *testing.T, seed int64, opts lwfspfs.Options) rankFiles {
	t.Helper()
	const ranks = 4
	cl := cluster.New(redundantChaosSpec())
	cl.RegisterUser("app", "s3cret")
	l := cl.DeployLWFS()
	out := rankFiles{errs: make([]error, ranks)}
	acked := make([]bool, ranks)

	vol := sim.NewMailbox(cl.K, "rchaos/vol")
	created := sim.NewMailbox(cl.K, "rchaos/created")
	done := sim.NewMailbox(cl.K, "rchaos/done")
	cl.Spawn("chaos", func(p *sim.Proc) {
		for range ranks {
			created.Recv(p)
		}
		p.Sleep(time.Duration(1+seed%5) * time.Millisecond)
		l.Servers[1].Crash()
	})

	var cid authz.ContainerID
	for rank := range ranks {
		c := cl.NewClient(l, rank)
		c.SetRetry(chaosRetry, seed+int64(rank+1)*1000003)
		cl.Spawn(fmt.Sprintf("rank%d", rank), func(p *sim.Proc) {
			defer done.Send(rank)
			if err := c.Login(p, "app", "s3cret"); err != nil {
				t.Errorf("rank %d login: %v", rank, err)
				return
			}
			var fs *lwfspfs.FS
			var err error
			if rank == 0 {
				if fs, err = lwfspfs.Format(p, c, "/ckpt", opts); err == nil {
					cid = fs.Container()
					for range ranks - 1 {
						vol.Send(cid)
					}
				}
			} else {
				fs, err = lwfspfs.Mount(p, c, "/ckpt", vol.Recv(p).(authz.ContainerID))
			}
			if err != nil {
				t.Errorf("rank %d mount: %v", rank, err)
				return
			}
			f, err := fs.Create(p, fmt.Sprintf("/rank-%d", rank))
			created.Send(rank)
			if err != nil {
				t.Errorf("rank %d create: %v", rank, err)
				return
			}
			if _, err := f.WriteAt(p, 0, netsim.BytesPayload(trace.DataFor(uint64(rank)+1, 2*mb))); err != nil {
				out.errs[rank] = fmt.Errorf("write: %w", err)
				return
			}
			if err := f.Sync(p); err != nil {
				out.errs[rank] = fmt.Errorf("sync: %w", err)
				return
			}
			if err := f.Close(p); err != nil {
				out.errs[rank] = fmt.Errorf("close: %w", err)
				return
			}
			acked[rank] = true
		})
	}

	// Reads cannot be deduplicated server-side (each retry re-pushes the
	// data), so the read-back's timeout covers a whole object's read.
	readRetry := chaosRetry
	readRetry.Timeout = 100 * time.Millisecond
	reader := cl.NewClient(l, ranks)
	reader.SetRetry(readRetry, seed+99)
	cl.Spawn("restore", func(p *sim.Proc) {
		for range ranks {
			done.Recv(p)
		}
		if err := reader.Login(p, "app", "s3cret"); err != nil {
			t.Errorf("reader login: %v", err)
			return
		}
		fs, err := lwfspfs.Mount(p, reader, "/ckpt", cid)
		if err != nil {
			t.Errorf("reader mount: %v", err)
			return
		}
		for rank := range ranks {
			f, err := fs.Open(p, fmt.Sprintf("/rank-%d", rank))
			if err != nil {
				out.errs[rank] = cmp.Or(out.errs[rank], fmt.Errorf("open: %w", err))
				continue
			}
			got, err := f.ReadAt(p, 0, 2*mb)
			if err != nil {
				out.errs[rank] = cmp.Or(out.errs[rank], fmt.Errorf("read: %w", err))
				continue
			}
			if acked[rank] && !bytes.Equal(got.Bytes(), trace.DataFor(uint64(rank)+1, 2*mb)) {
				t.Errorf("rank %d: acknowledged dump read back wrong (%d bytes) without an error", rank, got.Size)
			}
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	out.degraded = cl.Metrics().Snapshot().Sum("stripe.*.degraded_reads")
	return out
}

// TestRedundantCheckpointRidesThroughCrash: the same chaos schedule — one
// storage server crashes mid-checkpoint and never comes back — makes a
// RAID-0 checkpoint fail detectably, while replica and parity files
// acknowledge every rank and read every rank back bit-exact through
// degraded reads. Honors LWFS_CHAOS_SEED for the CI seed matrix.
func TestRedundantCheckpointRidesThroughCrash(t *testing.T) {
	seed := testrig.SeedFromEnv(13)
	const unit = 256 << 10

	t.Run("raid0-fails-detectably", func(t *testing.T) {
		out := runRedundantChaos(t, seed, lwfspfs.Options{StripeUnit: unit, Stripes: 2})
		failed := 0
		for rank, err := range out.errs {
			if err != nil {
				failed++
				t.Logf("rank %d failed as it may: %v", rank, err)
			}
		}
		if failed == 0 {
			t.Fatalf("every raid0 rank dumped and read back through a server loss — the crash missed the dump window")
		}
	})

	for _, tc := range []struct {
		name string
		opts lwfspfs.Options
	}{
		{"replica", lwfspfs.Options{StripeUnit: unit, Stripes: 2, Scheme: stripe.Replica}},
		{"parity", lwfspfs.Options{StripeUnit: unit, Stripes: 3, Scheme: stripe.Parity}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := runRedundantChaos(t, seed, tc.opts)
			for rank, err := range out.errs {
				if err != nil {
					t.Errorf("rank %d despite redundancy: %v", rank, err)
				}
			}
			if out.degraded == 0 {
				t.Fatalf("read-back never took the degraded-read path — the crash missed the dump window")
			}
			t.Logf("%v degraded reads", out.degraded)
		})
	}
}
