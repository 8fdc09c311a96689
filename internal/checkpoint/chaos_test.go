package checkpoint_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"lwfs/internal/authz"
	"lwfs/internal/checkpoint"
	"lwfs/internal/cluster"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/testrig"
	"lwfs/internal/trace"
)

// chaosSpec builds a 2-server cluster with one server per storage node, so
// crashing a server takes out a whole placement target.
func chaosSpec() cluster.Spec {
	spec := cluster.DevCluster()
	spec.ComputeNodes = 4
	spec.ServersPerNode = 1
	return spec.WithServers(2)
}

// chaosRetry must comfortably cover one healthy BytesPerProc write (~2 MB
// at 230 MB/s with two ranks sharing the server NIC ≈ 20 ms), while keeping
// the fail-over path fast in virtual time.
var chaosRetry = portals.RetryPolicy{
	MaxAttempts: 3,
	Timeout:     30 * time.Millisecond,
	Backoff:     time.Millisecond,
	MaxBackoff:  4 * time.Millisecond,
	Jitter:      200 * time.Microsecond,
}

type chaosOutcome struct {
	res      *checkpoint.Result
	manifest checkpoint.Manifest
	data     [][]byte // per-rank restored bytes
	removed  int      // orphans swept by the crashed server's journal replay
	// fullAtCrash counts data objects on the victim's device that held a
	// complete BytesPerProc dump at the instant of the crash — ranks whose
	// checkpoint had already landed there and must be re-homed before commit.
	fullAtCrash int
	victim      netsim.NodeID // node of the crashed server
	log         *testrig.ChaosLog
}

// chaosParams scripts one crash/restart scenario.
type chaosParams struct {
	seed      int64
	jitterMax time.Duration // per-rank start stagger (0 = the 1ms default)
	crashAt   time.Duration
	restartAt time.Duration
}

// runChaosCheckpoint is the scripted scenario behind the acceptance tests:
// a 4-process checkpoint over 2 storage servers; server 1 crashes 8 ms in —
// after every rank's provisional create has landed but while the dumps are
// still streaming — and restarts at 250 ms, well after the job finished
// around it. The ranks placed on the dead server ride their retry budget,
// redirect to the survivor, and the commit tail drops the dead server from
// the transaction; the restart replays the journal and sweeps the orphaned
// provisional creates; a restore pass then reads every rank's pattern back
// bit-exactly.
func runChaosCheckpoint(t *testing.T, seed int64) chaosOutcome {
	t.Helper()
	return runChaosScript(t, chaosParams{seed: seed, crashAt: 8 * time.Millisecond, restartAt: 250 * time.Millisecond})
}

func runChaosScript(t *testing.T, sc chaosParams) chaosOutcome {
	t.Helper()
	cl := cluster.New(chaosSpec())
	cl.RegisterUser("app", "s3cret")
	l := cl.DeployLWFS()
	cfg := checkpoint.Config{
		Procs:        4,
		BytesPerProc: 2 * mb,
		Seed:         sc.seed,
		JitterMax:    sc.jitterMax,
		Retry:        chaosRetry,
	}

	out := chaosOutcome{}
	victim := l.Servers[1]
	out.victim = victim.Node()
	out.log = testrig.RunChaos(cl.K,
		testrig.ChaosEvent{At: sc.crashAt, Name: "crash", Do: func(p *sim.Proc) {
			// Probe first: how many complete dumps had landed on the victim?
			// (The app's container is 1; the journal lives in container 0.)
			for _, id := range victim.Device().ListContainer(1) {
				if st, err := victim.Device().Stat(id); err == nil && st.Size >= cfg.BytesPerProc {
					out.fullAtCrash++
				}
			}
			victim.Crash()
		}},
		testrig.ChaosEvent{At: sc.restartAt, Name: "restart", Do: func(p *sim.Proc) {
			n, err := victim.Restart(p)
			if err != nil {
				t.Errorf("restart: %v", err)
			}
			out.removed = n
		}},
	)

	res, err := checkpoint.SetupLWFS(cl, l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out.res = res

	// Restore after the checkpoint (and the restart) have settled. Reads
	// cannot be deduplicated server-side (each retry re-pushes the data),
	// so the restore policy's timeout must cover a full BytesPerProc read
	// including its ~21 ms of disk time.
	restoreRetry := chaosRetry
	restoreRetry.Timeout = 100 * time.Millisecond
	restarter := cl.NewClient(l, 0)
	restarter.SetRetry(restoreRetry, sc.seed+99)
	gate := sim.NewMailbox(cl.K, "chaos/gate")
	cl.Spawn("gate", func(p *sim.Proc) {
		for res.Reported < cfg.Procs {
			p.Sleep(50 * time.Millisecond)
		}
		p.Sleep(300 * time.Millisecond) // past the scripted restart
		gate.Send("go")
	})
	cl.Spawn("restore", func(p *sim.Proc) {
		gate.Recv(p)
		if err := restarter.Login(p, "app", "s3cret"); err != nil {
			t.Errorf("login: %v", err)
			return
		}
		caps, err := restarter.GetCaps(p, 1, authz.AllOps...)
		if err != nil {
			t.Errorf("caps: %v", err)
			return
		}
		m, err := checkpoint.Restore(p, restarter, caps, "/ckpt-0001")
		if err != nil {
			t.Errorf("restore: %v", err)
			return
		}
		out.manifest = m
		out.data = make([][]byte, m.Ranks)
		for rank, ref := range m.Refs {
			payload, err := restarter.Read(p, ref, caps, 0, m.BytesPerProc)
			if err != nil {
				t.Errorf("rank %d read: %v", rank, err)
				return
			}
			out.data[rank] = payload.Bytes()
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCheckpointSurvivesServerCrash is the tentpole acceptance scenario:
// the checkpoint completes despite a mid-dump server crash, the redirected
// objects land on the survivor, the restarted server's journal replay
// sweeps the orphaned provisional creates, and Restore reads every rank's
// data back bit-exactly.
func TestCheckpointSurvivesServerCrash(t *testing.T) {
	out := runChaosCheckpoint(t, testrig.SeedFromEnv(7))
	t.Logf("chaos events: %v", out.log.Events)
	t.Logf("elapsed: %v, retries rode out the crash", out.res.Elapsed)

	if len(out.log.Events) != 2 {
		t.Fatalf("chaos fired %d events, want 2", len(out.log.Events))
	}
	if out.manifest.Ranks != 4 {
		t.Fatalf("manifest = %+v", out.manifest)
	}
	// No checkpoint object may reference the crashed server: the ranks
	// placed there were mid-dump when it died, so all four redirected or
	// were already on the survivor.
	survivor, crashed := 0, 0
	for rank, ref := range out.manifest.Refs {
		switch {
		case ref.Node == out.manifest.Refs[0].Node && ref.Port == out.manifest.Refs[0].Port:
			survivor++
		default:
			crashed++
			t.Errorf("rank %d object on unexpected server %d:%d", rank, ref.Node, ref.Port)
		}
	}
	if survivor != 4 {
		t.Fatalf("survivor holds %d objects, crashed %d; failover incomplete", survivor, crashed)
	}
	// The crashed server journaled at least one provisional create before
	// dying; presumed abort on restart must have swept it.
	if out.removed < 1 {
		t.Fatalf("journal replay removed %d orphans, want >= 1", out.removed)
	}
	// Bit-exact restore: each rank's bytes match its deterministic pattern.
	for rank, got := range out.data {
		want := trace.DataFor(uint64(rank)+1, out.manifest.BytesPerProc)
		if !bytes.Equal(got, want) {
			t.Fatalf("rank %d restored data differs from pattern", rank)
		}
	}
}

// chaosRehomeSeed/CrashAt pin a schedule (under 35 ms start jitter) where
// one victim-placed rank has fully dumped and synced before the crash while
// the other is still streaming — the window the re-home fix exists for.
const (
	chaosRehomeSeed    = 1
	chaosRehomeCrashAt = 40 * time.Millisecond
)

// TestCompletedDumpOnCrashedServerIsRehomed is the regression test for a
// correctness hole in the original failover: rank starts are staggered so
// that one rank *completes* its dump (provisional create journaled, data
// synced) on the victim before the crash, while another rank placed there is
// still mid-dump. The mid-dump rank's timeout used to delist the victim
// immediately, so the victim's recovery resolved the shared transaction by
// presumed abort and deleted the completed rank's object — while the
// manifest still referenced it, silently corrupting the restore. The fix
// re-homes the completed rank's object onto a survivor at the commit tail
// and only then drops the victim from the commit set.
func TestCompletedDumpOnCrashedServerIsRehomed(t *testing.T) {
	out := runChaosScript(t, chaosParams{
		seed:      chaosRehomeSeed,
		jitterMax: 35 * time.Millisecond,
		crashAt:   chaosRehomeCrashAt,
		restartAt: 250 * time.Millisecond,
	})
	t.Logf("chaos events: %v, full dumps on victim at crash: %d", out.log.Events, out.fullAtCrash)

	// Scenario precondition: at least one rank had fully landed on the
	// victim when it died. Without it this test degenerates into
	// TestCheckpointSurvivesServerCrash and proves nothing new.
	if out.fullAtCrash < 1 {
		t.Fatalf("scenario setup broken: no completed dump on the victim at crash time")
	}
	if out.manifest.Ranks != 4 {
		t.Fatalf("manifest = %+v", out.manifest)
	}
	// Every manifest reference must have been moved off the victim: its
	// journal replay deletes all its provisional creates by presumed abort.
	for rank, ref := range out.manifest.Refs {
		if ref.Node == out.victim {
			t.Errorf("rank %d still references the crashed server", rank)
		}
	}
	// The victim's replay must sweep the completed dump's create along with
	// the mid-dump one — both are orphans now that the data was re-homed.
	if out.removed < 2 {
		t.Fatalf("journal replay removed %d orphans, want >= 2 (completed + in-flight creates)", out.removed)
	}
	// The decisive assertion: the re-homed rank's data restores bit-exactly.
	for rank, got := range out.data {
		want := trace.DataFor(uint64(rank)+1, out.manifest.BytesPerProc)
		if !bytes.Equal(got, want) {
			t.Fatalf("rank %d restored data differs from pattern", rank)
		}
	}
}

// TestChaosDeterministicGivenSeed: the same chaos script and seed replay to
// identical virtual-time results — fault injection must not break the
// simulator's determinism.
func TestChaosDeterministicGivenSeed(t *testing.T) {
	seed := testrig.SeedFromEnv(11)
	a := runChaosCheckpoint(t, seed)
	b := runChaosCheckpoint(t, seed)
	if a.res.Elapsed != b.res.Elapsed {
		t.Fatalf("same seed, different elapsed: %v vs %v", a.res.Elapsed, b.res.Elapsed)
	}
	if fmt.Sprint(a.manifest.Refs) != fmt.Sprint(b.manifest.Refs) {
		t.Fatalf("same seed, different placements:\n%v\n%v", a.manifest.Refs, b.manifest.Refs)
	}
	if fmt.Sprint(a.log.Events) != fmt.Sprint(b.log.Events) {
		t.Fatalf("same seed, different chaos timing:\n%v\n%v", a.log.Events, b.log.Events)
	}
}
