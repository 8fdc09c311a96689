package txn_test

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"lwfs/internal/netsim"
	"lwfs/internal/sim"
	"lwfs/internal/testrig"
	"lwfs/internal/txn"
)

// The lock queue is observable through the registry: two contenders behind
// a holder are two waits, and every one of the three is granted in the end.
func TestLockQueueLenObservable(t *testing.T) {
	r := testrig.New(5)
	bootLocks(r, 1)
	holder := txn.NewLockClient(r.Eps[2], r.Eps[1].Node(), 1)
	var queued int64
	r.Go("holder", func(p *sim.Proc) {
		holder.Lock(p, "x", txn.Exclusive)
		p.Sleep(20 * time.Millisecond)
		queued = r.Metric("lock.waits")
		holder.Unlock(p, "x")
	})
	for i := 0; i < 2; i++ {
		lc := txn.NewLockClient(r.Eps[3+i], r.Eps[1].Node(), 1)
		r.Go(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			lc.Lock(p, "x", txn.Exclusive)
			lc.Unlock(p, "x")
		})
	}
	r.Run(t)
	if queued != 2 {
		t.Fatalf("waiters behind the holder = %d, want 2", queued)
	}
	if grants := r.Metric("lock.grants"); grants != 3 {
		t.Fatalf("grants = %d, want 3: the queue did not drain", grants)
	}
}

// Lock returns the name's generation: exclusive grants count, shared ones
// report the count so far, and a grant promoted from the queue counts too.
func TestLockGeneration(t *testing.T) {
	r := testrig.New(4)
	bootLocks(r, 1)
	a := txn.NewLockClient(r.Eps[2], r.Eps[1].Node(), 1)
	b := txn.NewLockClient(r.Eps[3], r.Eps[1].Node(), 1)
	var got []uint64
	lock := func(p *sim.Proc, lc *txn.LockClient, name string, mode txn.LockMode) {
		g, err := lc.Lock(p, name, mode)
		if err != nil {
			t.Errorf("lock: %v", err)
		}
		got = append(got, g)
	}
	r.Go("a", func(p *sim.Proc) {
		lock(p, a, "f", txn.Shared)    // 0: no exclusive grant yet
		a.Unlock(p, "f")               //nolint:errcheck
		lock(p, a, "f", txn.Exclusive) // 1
		p.Sleep(10 * time.Millisecond) // b queues behind this grant
		a.Unlock(p, "f")               //nolint:errcheck
		p.Sleep(10 * time.Millisecond)
		lock(p, a, "f", txn.Shared)    // 2: b's promoted grant
		a.Unlock(p, "f")               //nolint:errcheck
		lock(p, a, "g", txn.Exclusive) // 1: generations are per name
		a.Unlock(p, "g")               //nolint:errcheck
	})
	r.Go("b", func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond)
		lock(p, b, "f", txn.Exclusive) // 2, after waiting
		b.Unlock(p, "f")               //nolint:errcheck
	})
	r.Run(t)
	if want := []uint64{0, 1, 2, 2, 1}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("generations %v, want %v", got, want)
	}
}

func TestReentrantSharedLock(t *testing.T) {
	r := testrig.New(3)
	bootLocks(r, 1)
	lc := txn.NewLockClient(r.Eps[2], r.Eps[1].Node(), 7)
	r.Go("c", func(p *sim.Proc) {
		if _, err := lc.Lock(p, "f", txn.Shared); err != nil {
			t.Errorf("lock 1: %v", err)
		}
		if _, err := lc.Lock(p, "f", txn.Shared); err != nil {
			t.Errorf("re-entrant lock: %v", err)
		}
		if err := lc.Unlock(p, "f"); err != nil {
			t.Errorf("unlock 1: %v", err)
		}
		if err := lc.Unlock(p, "f"); err != nil {
			t.Errorf("unlock 2: %v", err)
		}
		if err := lc.Unlock(p, "f"); err == nil {
			t.Error("third unlock succeeded")
		}
	})
	r.Run(t)
}

func TestTxnIDEncoding(t *testing.T) {
	r := testrig.New(3)
	co := txn.NewCoordinator(r.Caller(2))
	tx1 := co.Begin()
	tx2 := co.Begin()
	if tx1.ID == tx2.ID {
		t.Fatal("duplicate transaction IDs")
	}
	if node := netsim.NodeID(tx1.ID >> 32); node != r.Eps[2].Node() {
		t.Fatalf("coordinator bits = %v", node)
	}
	if s := tx1.ID.String(); s == "" {
		t.Fatal("empty String()")
	}
}

// Property: Outcomes is deterministic and total — every txn mentioned in
// the records resolves to committed or aborted, commit/abort records win
// over prepares, and no txn resolves to both.
func TestOutcomesProperty(t *testing.T) {
	kinds := []string{"begin", "create", "prepare", "commit", "abort"}
	prop := func(seq []uint8) bool {
		var recs []txn.JournalRecord
		committed := map[txn.ID]bool{}
		aborted := map[txn.ID]bool{}
		for i, raw := range seq {
			if i >= 40 {
				break
			}
			id := txn.ID(raw % 5)
			kind := kinds[int(raw/5)%len(kinds)]
			// Model terminal-state precedence: first terminal record wins
			// in our journals (participants never write both).
			if committed[id] || aborted[id] {
				continue
			}
			switch kind {
			case "commit":
				committed[id] = true
			case "abort":
				aborted[id] = true
			}
			recs = append(recs, txn.JournalRecord{Txn: id, Kind: kind})
		}
		out := txn.Outcomes(recs)
		for _, rec := range recs {
			st, ok := out[rec.Txn]
			if !ok {
				return false
			}
			if st != txn.StatusCommitted && st != txn.StatusAborted {
				return false
			}
			if committed[rec.Txn] && st != txn.StatusCommitted {
				return false
			}
			if aborted[rec.Txn] && st != txn.StatusAborted {
				return false
			}
			// Unresolved txns presume abort.
			if !committed[rec.Txn] && !aborted[rec.Txn] && st != txn.StatusAborted {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCommitTimeoutUnderRealPartition(t *testing.T) {
	// A participant that is alive but unreachable (network partition, not
	// a missing service) must also resolve through the timeout + abort
	// path, and the reachable participant must end aborted. The partitioned
	// one is enlisted first, so it is prepared rather than the decision site
	// (TestPartitionedSiteResolvesAfterHeal covers a partitioned site).
	r := testrig.New(4)
	pt1, _ := bootParticipant(r, 1)
	pt2, _ := bootParticipant(r, 2)
	co := txn.NewCoordinator(impatientCaller(r, 3))
	r.Go("client", func(p *sim.Proc) {
		tx := co.Begin()
		tx.Enlist(endpoint(r, 2))
		tx.Enlist(endpoint(r, 1))
		// Cut node 2 off from the coordinator (but not from node 1).
		r.Net.Partition(
			[]netsim.NodeID{r.Eps[2].Node()},
			[]netsim.NodeID{r.Eps[3].Node()},
		)
		err := tx.Commit(p)
		if err == nil {
			t.Error("commit succeeded across a partition")
		}
		r.Net.Heal()
	})
	r.Run(t)
	if pt1.Status(0x300000001) != txn.StatusAborted {
		t.Fatalf("reachable participant = %v, want aborted", pt1.Status(0x300000001))
	}
	// The partitioned participant never heard anything: still active; its
	// journal-replay recovery resolves it by presumed abort.
	if pt2.Status(0x300000001) != txn.StatusActive {
		t.Fatalf("partitioned participant = %v", pt2.Status(0x300000001))
	}
}

func TestStatusStrings(t *testing.T) {
	for st, want := range map[txn.Status]string{
		txn.StatusActive:    "active",
		txn.StatusPrepared:  "prepared",
		txn.StatusCommitted: "committed",
		txn.StatusAborted:   "aborted",
	} {
		if st.String() != want {
			t.Errorf("%d.String() = %q", st, st.String())
		}
	}
	if txn.Shared.String() != "shared" || txn.Exclusive.String() != "exclusive" {
		t.Error("lock mode strings")
	}
}
