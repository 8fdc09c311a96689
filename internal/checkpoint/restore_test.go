package checkpoint_test

import (
	"errors"
	"testing"

	"lwfs/internal/authz"
	"lwfs/internal/checkpoint"
	"lwfs/internal/cluster"
	"lwfs/internal/naming"
	"lwfs/internal/sim"
)

func TestRestoreFindsEveryRank(t *testing.T) {
	spec := testSpec(4)
	cl := cluster.New(spec)
	cl.RegisterUser("app", "s3cret")
	l := cl.DeployLWFS()
	cfg := checkpoint.Config{Procs: 6, BytesPerProc: 4 * mb, Seed: 3}
	res, err := checkpoint.SetupLWFS(cl, l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A separate "restart" process runs after the checkpoint completes.
	var manifest checkpoint.Manifest
	restarter := cl.NewClient(l, 0)
	started := sim.NewMailbox(cl.K, "gate")
	cl.Spawn("gate", func(p *sim.Proc) {
		// Wait until every rank (including rank 0's commit tail) folded
		// its result, then wake the restart.
		for res.Reported < cfg.Procs {
			p.Sleep(50 * 1e6) // 50ms
		}
		started.Send("go")
	})
	cl.Spawn("restart", func(p *sim.Proc) {
		started.Recv(p)
		if err := restarter.Login(p, "app", "s3cret"); err != nil {
			t.Errorf("login: %v", err)
			return
		}
		// The restarting job gets fresh capabilities for the container the
		// name resolves into; learn the container by stat-ing the metadata
		// object... the owner can simply re-request caps per container it
		// owns. Here the checkpoint used container 1 (first created).
		caps, err := restarter.GetCaps(p, 1, authz.AllOps...)
		if err != nil {
			t.Errorf("caps: %v", err)
			return
		}
		manifest, err = checkpoint.Restore(p, restarter, caps, "/ckpt-0001")
		if err != nil {
			t.Errorf("restore: %v", err)
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if manifest.Ranks != 6 || manifest.BytesPerProc != 4*mb || len(manifest.Refs) != 6 {
		t.Fatalf("manifest = %+v", manifest)
	}
	// Distinct objects per rank.
	seen := map[string]bool{}
	for _, r := range manifest.Refs {
		key := string(rune(r.Node)) + ":" + string(rune(r.Port)) + ":" + string(rune(r.ID))
		if seen[key] {
			t.Fatalf("duplicate ref %+v", r)
		}
		seen[key] = true
	}
}

func TestRestoreMissingName(t *testing.T) {
	spec := testSpec(2)
	cl := cluster.New(spec)
	cl.RegisterUser("app", "s3cret")
	l := cl.DeployLWFS()
	c := cl.NewClient(l, 0)
	cl.Spawn("restart", func(p *sim.Proc) {
		c.Login(p, "app", "s3cret")
		cid, _ := c.CreateContainer(p)
		caps, _ := c.GetCaps(p, cid, authz.AllOps...)
		if _, err := checkpoint.Restore(p, c, caps, "/no-such-ckpt"); !errors.Is(err, naming.ErrNotFound) {
			t.Errorf("restore missing: %v", err)
		}
		// A directory names no manifest either.
		if _, err := checkpoint.Restore(p, c, caps, "/"); !errors.Is(err, naming.ErrIsDir) {
			t.Errorf("restore of a directory: %v", err)
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}
