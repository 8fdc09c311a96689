package txn

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"lwfs/internal/osd"
	"lwfs/internal/sim"
)

// preparePool spawns prepares of ids first..first+n-1 at pt and returns a
// wait that blocks until they have all returned, and the ids whose prepare
// returned a yes vote.
func preparePool(t *testing.T, pt *Participant, p *sim.Proc, first ID, n int) (wait func(), acked *[]ID) {
	var wg sim.WaitGroup
	acked = new([]ID)
	for id := first; id < first+ID(n); id++ {
		wg.Add(1)
		p.Kernel().Spawn("prepare", func(q *sim.Proc) {
			defer wg.Done()
			if err := pt.prepare(q, id, Endpoint{}); err != nil {
				t.Error(err)
				return
			}
			*acked = append(*acked, id)
		})
	}
	return func() { wg.Wait(p) }, acked
}

// prepareLines counts each transaction's prepare records in the journal.
func prepareLines(t *testing.T, pt *Participant, p *sim.Proc) map[ID]int {
	recs, err := pt.ReadJournal(p)
	if err != nil {
		t.Fatal(err)
	}
	n := make(map[ID]int)
	for _, r := range recs {
		if r.Kind == "prepare" {
			n[r.Txn]++
		}
	}
	return n
}

// K prepares arriving at one participant together pay fewer than K flush
// barriers: their records join one disk write and their Syncs one barrier.
// Every record still lands once, whole, at its own offset.
func TestConcurrentPreparesShareFlushes(t *testing.T) {
	const k = 6
	pt, run := soloParticipant(t)
	run(func(p *sim.Proc) {
		logN(t, pt, p, 1) // the journal exists: no prepare pays its create
		before := pt.dev.DiskBusy()
		wait, acked := preparePool(t, pt, p, 1, k)
		wait()
		if len(*acked) != k {
			t.Fatalf("%d of %d prepares voted yes", len(*acked), k)
		}
		if spent, flushes := pt.dev.DiskBusy()-before, k*osd.DefaultDiskParams().SyncCost; spent >= flushes {
			t.Fatalf("%d prepares kept the disk busy %v, no less than %d flush barriers (%v)", k, spent, k, flushes)
		}
		got := contents(t, pt.dev, p)
		lines := strings.SplitAfter(got, "\n")
		if len(lines) != k+2 || lines[k+1] != "" {
			t.Fatalf("journal holds %d lines, want %d: %q", len(lines)-1, k+1, got)
		}
		for i, line := range lines[1 : k+1] {
			if want := fmt.Sprintf("%d prepare \n", i+1); line != want {
				t.Errorf("record %d is %q, want %q", i+1, line, want)
			}
		}
	})
}

// A participant that crashes while a joined append is still queued on its
// disk loses no acknowledged vote: Recover, run at once by its successor,
// finds a prepare record for every prepare that returned before the crash,
// and the dead incarnation's queued records still land once each.
func TestCrashWithJoinedAppendQueuedKeepsVotes(t *testing.T) {
	const k = 4
	pt, run := soloParticipant(t)
	run(func(p *sim.Proc) {
		logN(t, pt, p, 1)
		wait, acked := preparePool(t, pt, p, 1, k)
		wait()
		before := pt.dev.DiskBusy()
		wait, _ = preparePool(t, pt, p, k+1, k)
		p.Sleep(time.Microsecond)
		// The first record of the second round is on the disk; the others
		// joined it: one positioning cost for k records, all still queued.
		if queued := pt.dev.DiskBusy() - before; queued >= 2*osd.DefaultDiskParams().PerOpOverhead {
			t.Fatalf("%v queued for %d records: they did not join", queued, k)
		}
		pt.Crash()
		pt.Restart()
		recs, _, err := pt.Recover(p)
		if err != nil {
			t.Fatal(err)
		}
		found := make(map[ID]bool)
		for _, r := range recs {
			if r.Kind == "prepare" {
				found[r.Txn] = true
			}
		}
		for _, id := range *acked {
			if !found[id] {
				t.Errorf("acknowledged vote of %v lost", id)
			}
		}
		wait()
		lines := prepareLines(t, pt, p)
		for id := ID(1); id <= 2*k; id++ {
			if n := lines[id]; n != 1 {
				t.Errorf("%v has %d prepare records", id, n)
			}
		}
	})
}
