package checkpoint_test

import (
	"bytes"
	"testing"
	"time"

	"lwfs/internal/burst"
	"lwfs/internal/checkpoint"
	"lwfs/internal/cluster"
	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/sim"
	"lwfs/internal/testrig"
	"lwfs/internal/trace"
)

// crashRestartSchedule is the shared chaos script for the recovery tests:
// crash the (single) burst buffer mid-drain, bring it back 100 ms later.
// The same virtual-time schedule runs against both the journaled and the
// memory-only tier, so the outcomes differ only by the journal.
func crashRestartSchedule(l *cluster.LWFS) []testrig.ChaosEvent {
	return []testrig.ChaosEvent{
		// 100 ms: every rank's 2 MB stage is long acked, but at 1 MB/s drain
		// the first extent is still in flight.
		{At: 100 * time.Millisecond, Name: "crash-buffer", Do: func(p *sim.Proc) {
			l.Burst[0].Crash()
		}},
		{At: 200 * time.Millisecond, Name: "restart-buffer", Do: func(p *sim.Proc) {
			if _, err := l.Burst[0].Restart(p); err != nil {
				panic(err)
			}
		}},
	}
}

func recoveryConfig() checkpoint.Config {
	return checkpoint.Config{
		Procs:           4,
		BytesPerProc:    2 * mb,
		Seed:            testrig.SeedFromEnv(3), // shifts jitter/placement per CI matrix seed
		DrainTimeout:    300 * time.Millisecond,
		RecoveryTimeout: 30 * time.Second,
	}
}

// TestJournaledBufferCrashRecoversDump is the tentpole's acceptance test:
// with a journaled buffer, the crash-mid-drain schedule that used to abort
// the dump now ends in a committed, Durable checkpoint — the restarted
// buffer replays its journal, resumes draining, rank 0's commit gate rides
// out the outage inside RecoveryTimeout, and the restore is bit-exact.
func TestJournaledBufferCrashRecoversDump(t *testing.T) {
	spec := burstSpec(1)
	spec.Burst.DrainBW = mb // ~2 s per rank: a wide window to crash inside
	journal := osd.BurstJournalParams()
	spec.BurstJournal = &journal
	out := runBurstCheckpoint(t, spec, recoveryConfig(), crashRestartSchedule)
	t.Logf("chaos events: %v", out.log.Events)
	if out.res.Aborted {
		t.Fatalf("journaled buffer crash aborted the dump — recovery did not engage")
	}
	if !out.res.Recovered {
		t.Fatalf("dump committed without marking Recovered — did the crash window miss the drain?")
	}
	if out.restoreErr != nil {
		t.Fatalf("restore after recovery: %v", out.restoreErr)
	}
	t.Logf("apparent %v, durable %v (recovery inside the tail)", out.res.Elapsed, out.res.Durable)
	for rank, got := range out.data {
		if !bytes.Equal(got, trace.DataFor(uint64(rank)+1, out.manifest.BytesPerProc)) {
			t.Fatalf("rank %d restored data differs from pattern", rank)
		}
	}
}

// TestMemoryOnlyBufferCrashStillAborts pins the control case: the exact
// crash/restart schedule of the recovery test, same RecoveryTimeout, but a
// memory-only buffer. The restarted buffer disclaims the staged refs
// (ErrLost — terminal, no amount of waiting helps), the transaction rolls
// back, no provisional objects linger, and the restore fails cleanly.
func TestMemoryOnlyBufferCrashStillAborts(t *testing.T) {
	spec := burstSpec(1)
	spec.Burst.DrainBW = mb
	out := runBurstCheckpoint(t, spec, recoveryConfig(), crashRestartSchedule)
	t.Logf("chaos events: %v", out.log.Events)
	if !out.res.Aborted {
		t.Fatalf("memory-only buffer crash did not abort the checkpoint")
	}
	if out.res.Recovered {
		t.Fatalf("memory-only run claims Recovered")
	}
	if out.restoreErr == nil {
		t.Fatalf("restore of an aborted checkpoint succeeded: manifest %+v", out.manifest)
	}
	for i, srv := range out.l.Servers {
		if ids := srv.Device().ListContainer(1); len(ids) != 0 {
			t.Fatalf("server %d still holds %d objects after abort", i, len(ids))
		}
	}
}

// TestBufferAssignmentTopology pins the placement policy: deterministic,
// balanced to ceil(n/buffers), and nearest-by-node-distance — so the ranks
// a single buffer crash can touch are a topology-local slice, not a
// modulo-arithmetic block.
func TestBufferAssignmentTopology(t *testing.T) {
	buffers := []burst.Target{{Node: 3}, {Node: 4}}
	nodes := []netsim.NodeID{5, 6, 7, 8} // cn0..cn3, just past bb0/bb1
	got := checkpoint.BufferAssignment(nodes, buffers)
	// Ranks 0/1 sit nearest bb1 (node 4) and fill its share of 2; ranks 2/3
	// overflow to bb0.
	want := []int{1, 1, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("assignment %v, want %v", got, want)
		}
	}
	// Balanced: no buffer above ceil(4/2).
	load := make([]int, len(buffers))
	for _, b := range got {
		load[b]++
	}
	for bi, n := range load {
		if n > 2 {
			t.Fatalf("buffer %d over its balanced share: %d ranks", bi, n)
		}
	}
	// Deterministic: same inputs, same answer.
	again := checkpoint.BufferAssignment(nodes, buffers)
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("assignment not deterministic: %v vs %v", got, again)
		}
	}
	if checkpoint.BufferAssignment(nodes, nil) != nil {
		t.Fatalf("no buffers should yield a nil assignment")
	}
}
