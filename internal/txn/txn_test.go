package txn_test

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"lwfs/internal/osd"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/testrig"
	"lwfs/internal/txn"
)

const txnPort portals.Index = 30

// bootParticipant starts a participant with its own device on rig node idx.
func bootParticipant(r *testrig.Rig, idx int) (*txn.Participant, *osd.Device) {
	dev := osd.NewDevice(r.K, fmt.Sprintf("dev%d", idx), osd.DefaultDiskParams())
	pt := txn.NewParticipant(r.Eps[idx], dev, txnPort)
	return pt, dev
}

func endpoint(r *testrig.Rig, idx int) txn.Endpoint {
	return txn.Endpoint{Node: r.Eps[idx].Node(), Port: txnPort}
}

func TestCommitRunsCallbacksAndJournals(t *testing.T) {
	r := testrig.New(3)
	pt, _ := bootParticipant(r, 1)
	co := txn.NewCoordinator(r.Caller(2))
	var committed, aborted bool
	r.Go("client", func(p *sim.Proc) {
		tx := co.Begin()
		tx.Enlist(endpoint(r, 1))
		if err := pt.Log(p, txn.JournalRecord{Txn: tx.ID, Kind: "create", Detail: "obj7"}); err != nil {
			t.Fatalf("log: %v", err)
		}
		pt.OnCommit(tx.ID, func(q *sim.Proc) { committed = true })
		pt.OnAbort(tx.ID, func(q *sim.Proc) { aborted = true })
		if err := tx.Commit(p); err != nil {
			t.Fatalf("commit: %v", err)
		}
		recs, err := pt.ReadJournal(p)
		if err != nil {
			t.Fatalf("journal: %v", err)
		}
		kinds := ""
		for _, rec := range recs {
			kinds += rec.Kind + ";"
		}
		// The one participant is the decision site: its vote and the
		// decision are one commit record, with no prepare before it.
		if kinds != "create;commit;" {
			t.Errorf("journal = %q", kinds)
		}
	})
	r.Run(t)
	if !committed || aborted {
		t.Fatalf("committed=%v aborted=%v", committed, aborted)
	}
	if pt.Status(0x200000001) != txn.StatusCommitted {
		// ID = node2<<32 | seq1
		t.Fatalf("status = %v", pt.Status(0x200000001))
	}
}

func TestAbortRunsUndoInReverseOrder(t *testing.T) {
	r := testrig.New(3)
	pt, _ := bootParticipant(r, 1)
	co := txn.NewCoordinator(r.Caller(2))
	var undo []int
	r.Go("client", func(p *sim.Proc) {
		tx := co.Begin()
		tx.Enlist(endpoint(r, 1))
		pt.OnAbort(tx.ID, func(q *sim.Proc) { undo = append(undo, 1) })
		pt.OnAbort(tx.ID, func(q *sim.Proc) { undo = append(undo, 2) })
		if err := tx.Abort(p); err != nil {
			t.Fatalf("abort: %v", err)
		}
	})
	r.Run(t)
	if len(undo) != 2 || undo[0] != 2 || undo[1] != 1 {
		t.Fatalf("undo order = %v", undo)
	}
}

func TestVoteNoAbortsEverywhere(t *testing.T) {
	r := testrig.New(4)
	pt1, _ := bootParticipant(r, 1)
	pt2, _ := bootParticipant(r, 2)
	pt2.FailPrepare = func(id txn.ID) bool { return true }
	co := txn.NewCoordinator(r.Caller(3))
	var undone1 bool
	r.Go("client", func(p *sim.Proc) {
		tx := co.Begin()
		tx.Enlist(endpoint(r, 1))
		tx.Enlist(endpoint(r, 2))
		pt1.OnAbort(tx.ID, func(q *sim.Proc) { undone1 = true })
		err := tx.Commit(p)
		if !errors.Is(err, txn.ErrAborted) {
			t.Fatalf("commit with failing participant: %v", err)
		}
		if pt1.Status(tx.ID) != txn.StatusAborted || pt2.Status(tx.ID) != txn.StatusAborted {
			t.Fatalf("statuses: %v %v", pt1.Status(tx.ID), pt2.Status(tx.ID))
		}
	})
	r.Run(t)
	if !undone1 {
		t.Fatal("participant 1's provisional work survived the abort")
	}
}

func TestCommitWithoutPrepareRejected(t *testing.T) {
	r := testrig.New(3)
	pt, _ := bootParticipant(r, 1)
	_ = pt
	r.Go("client", func(p *sim.Proc) {
		// Bypass the coordinator: raw commit for an unknown transaction.
		caller := r.Caller(2)
		co := txn.NewCoordinator(caller)
		tx := co.Begin()
		tx.Enlist(endpoint(r, 1))
		// A raw commit without prepare is not exposed; check instead that
		// the participant stays active until an Abort (idempotent for a
		// transaction it has logged nothing about) resolves it.
		if pt.Status(tx.ID) != txn.StatusActive {
			t.Fatalf("fresh txn status: %v", pt.Status(tx.ID))
		}
		if err := tx.Abort(p); err != nil {
			t.Fatalf("abort: %v", err)
		}
		if pt.Status(tx.ID) != txn.StatusAborted {
			t.Fatalf("aborted txn status: %v", pt.Status(tx.ID))
		}
	})
	r.Run(t)
}

func TestDoubleCommitRejected(t *testing.T) {
	r := testrig.New(3)
	bootParticipant(r, 1)
	co := txn.NewCoordinator(r.Caller(2))
	r.Go("client", func(p *sim.Proc) {
		tx := co.Begin()
		tx.Enlist(endpoint(r, 1))
		if err := tx.Commit(p); err != nil {
			t.Fatalf("commit: %v", err)
		}
		if err := tx.Commit(p); !errors.Is(err, txn.ErrTerminal) {
			t.Fatalf("double commit: %v", err)
		}
		if err := tx.Abort(p); !errors.Is(err, txn.ErrTerminal) {
			t.Fatalf("abort after commit: %v", err)
		}
	})
	r.Run(t)
}

func TestJournalSurvivesAndOutcomesResolve(t *testing.T) {
	r := testrig.New(3)
	pt, dev := bootParticipant(r, 1)
	co := txn.NewCoordinator(r.Caller(2))
	r.Go("client", func(p *sim.Proc) {
		txC := co.Begin() // will commit
		txC.Enlist(endpoint(r, 1))
		pt.Log(p, txn.JournalRecord{Txn: txC.ID, Kind: "create", Detail: "a"})
		if err := txC.Commit(p); err != nil {
			t.Fatalf("commit: %v", err)
		}
		txA := co.Begin() // will abort
		txA.Enlist(endpoint(r, 1))
		pt.Log(p, txn.JournalRecord{Txn: txA.ID, Kind: "create", Detail: "b"})
		txA.Abort(p)

		// "Crash": rebuild a participant over the same device and replay.
		pt2 := txn.NewParticipant(r.Eps[1], dev, txnPort+10)
		_ = pt2
		recs, err := pt.ReadJournal(p)
		if err != nil {
			t.Fatalf("read journal: %v", err)
		}
		out := txn.Outcomes(recs)
		if out[txC.ID] != txn.StatusCommitted {
			t.Errorf("txC outcome = %v", out[txC.ID])
		}
		if out[txA.ID] != txn.StatusAborted {
			t.Errorf("txA outcome = %v", out[txA.ID])
		}
	})
	r.Run(t)
}

func TestPresumedAbortForPreparedOrphan(t *testing.T) {
	recs := []txn.JournalRecord{
		{Txn: 5, Kind: "create", Detail: "x"},
		{Txn: 5, Kind: "prepare"},
	}
	out := txn.Outcomes(recs)
	if out[5] != txn.StatusAborted {
		t.Fatalf("prepared orphan resolves to %v, want aborted", out[5])
	}
}

// impatientCaller is a caller whose RPCs give up (two 25 ms attempts), so a
// Commit whose prepare reaches nobody fails instead of waiting forever.
func impatientCaller(r *testrig.Rig, idx int) *portals.Caller {
	c := r.Caller(idx)
	c.SetRetry(portals.RetryPolicy{MaxAttempts: 2, Timeout: 25 * time.Millisecond}, nil)
	return c
}

func TestPartitionedParticipantTimesOutAndAborts(t *testing.T) {
	r := testrig.New(4)
	pt1, _ := bootParticipant(r, 1)
	// Node 2 has NO participant: prepare there gets no reply (dropped). It
	// is enlisted first, so it is prepared rather than the decision site.
	co := txn.NewCoordinator(impatientCaller(r, 3))
	r.Go("client", func(p *sim.Proc) {
		tx := co.Begin()
		tx.Enlist(txn.Endpoint{Node: r.Eps[2].Node(), Port: txnPort})
		tx.Enlist(endpoint(r, 1))
		err := tx.Commit(p)
		if !errors.Is(err, txn.ErrAborted) {
			t.Fatalf("commit with partitioned participant: %v", err)
		}
		if pt1.Status(tx.ID) != txn.StatusAborted {
			t.Fatalf("pt1 status = %v", pt1.Status(tx.ID))
		}
	})
	r.Run(t)
}

// --- lock service ---

func bootLocks(r *testrig.Rig, idx int) *txn.LockServer {
	return txn.StartLockServer(r.Eps[idx])
}

func TestExclusiveLockMutualExclusion(t *testing.T) {
	r := testrig.New(4)
	bootLocks(r, 1)
	inside, maxInside := 0, 0
	for i := 0; i < 2; i++ {
		node := 2 + i
		lc := txn.NewLockClient(r.Eps[node], r.Eps[1].Node(), 1)
		r.Go(fmt.Sprintf("c%d", i), func(p *sim.Proc) {
			if _, err := lc.Lock(p, "obj:1", txn.Exclusive); err != nil {
				t.Errorf("lock: %v", err)
				return
			}
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Sleep(time.Millisecond)
			inside--
			if err := lc.Unlock(p, "obj:1"); err != nil {
				t.Errorf("unlock: %v", err)
			}
		})
	}
	r.Run(t)
	if maxInside != 1 {
		t.Fatalf("max concurrent exclusive holders = %d", maxInside)
	}
	grants, waits := r.Metric("lock.grants"), r.Metric("lock.waits")
	if grants != 2 || waits != 1 {
		t.Fatalf("grants=%d waits=%d", grants, waits)
	}
}

func TestSharedLocksCoexist(t *testing.T) {
	r := testrig.New(5)
	bootLocks(r, 1)
	var concurrent, maxConcurrent int
	for i := 0; i < 3; i++ {
		node := 2 + i
		lc := txn.NewLockClient(r.Eps[node], r.Eps[1].Node(), 1)
		r.Go(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
			if _, err := lc.Lock(p, "f", txn.Shared); err != nil {
				t.Errorf("lock: %v", err)
				return
			}
			concurrent++
			if concurrent > maxConcurrent {
				maxConcurrent = concurrent
			}
			p.Sleep(time.Millisecond)
			concurrent--
			lc.Unlock(p, "f")
		})
	}
	r.Run(t)
	if maxConcurrent != 3 {
		t.Fatalf("max concurrent shared holders = %d, want 3", maxConcurrent)
	}
}

func TestSharedBlocksExclusive(t *testing.T) {
	r := testrig.New(4)
	bootLocks(r, 1)
	reader := txn.NewLockClient(r.Eps[2], r.Eps[1].Node(), 1)
	writer := txn.NewLockClient(r.Eps[3], r.Eps[1].Node(), 1)
	var writerGot, readerReleased sim.Time
	r.Go("reader", func(p *sim.Proc) {
		reader.Lock(p, "f", txn.Shared)
		p.Sleep(10 * time.Millisecond)
		readerReleased = p.Now()
		reader.Unlock(p, "f")
	})
	r.Go("writer", func(p *sim.Proc) {
		p.Sleep(time.Millisecond) // let the reader in first
		if _, err := writer.Lock(p, "f", txn.Exclusive); err != nil {
			t.Errorf("lock: %v", err)
			return
		}
		writerGot = p.Now()
		writer.Unlock(p, "f")
	})
	r.Run(t)
	if writerGot < readerReleased {
		t.Fatalf("writer got lock at %v before reader released at %v", writerGot, readerReleased)
	}
}

func TestUnlockNotHeld(t *testing.T) {
	r := testrig.New(3)
	bootLocks(r, 1)
	lc := txn.NewLockClient(r.Eps[2], r.Eps[1].Node(), 1)
	r.Go("c", func(p *sim.Proc) {
		if err := lc.Unlock(p, "never"); !errors.Is(err, txn.ErrNotHeld) {
			t.Errorf("unlock unheld: %v", err)
		}
	})
	r.Run(t)
}

// Property: under any schedule of lock/unlock pairs from several owners,
// the server never grants an exclusive lock while any other holder exists.
func TestLockSafetyProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := testrig.New(6)
		bootLocks(r, 1)
		holders := map[string]int{}
		excl := map[string]bool{}
		safe := true
		names := []string{"a", "b"}
		rng := newRand(seed)
		for i := 0; i < 4; i++ {
			node := 2 + i
			lc := txn.NewLockClient(r.Eps[node], r.Eps[1].Node(), uint64(i))
			ops := make([]int, 6)
			for j := range ops {
				ops[j] = rng.Intn(100)
			}
			r.Go(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
				for _, o := range ops {
					name := names[o%2]
					mode := txn.Shared
					if o%3 == 0 {
						mode = txn.Exclusive
					}
					if _, err := lc.Lock(p, name, mode); err != nil {
						safe = false
						return
					}
					if excl[name] || (mode == txn.Exclusive && holders[name] > 0) {
						safe = false
					}
					holders[name]++
					excl[name] = mode == txn.Exclusive
					p.Sleep(time.Duration(o) * time.Microsecond)
					holders[name]--
					if holders[name] == 0 {
						excl[name] = false
					}
					lc.Unlock(p, name)
				}
			})
		}
		if err := r.K.Run(sim.MaxTime); err != nil {
			return false
		}
		return safe
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: two-phase commit is atomic — with a participant that votes no
// with probability depending on the seed, either all participants commit or
// all abort.
func TestTwoPhaseAtomicityProperty(t *testing.T) {
	prop := func(failMask uint8) bool {
		r := testrig.New(5)
		var pts []*txn.Participant
		for i := 1; i <= 3; i++ {
			pt, _ := bootParticipant(r, i)
			if failMask&(1<<uint(i-1)) != 0 {
				pt.FailPrepare = func(id txn.ID) bool { return true }
			}
			pts = append(pts, pt)
		}
		co := txn.NewCoordinator(r.Caller(4))
		var id txn.ID
		r.Go("client", func(p *sim.Proc) {
			tx := co.Begin()
			id = tx.ID
			for i := 1; i <= 3; i++ {
				tx.Enlist(endpoint(r, i))
			}
			tx.Commit(p) //nolint:errcheck
		})
		if err := r.K.Run(sim.MaxTime); err != nil {
			return false
		}
		committed, aborted := 0, 0
		for _, pt := range pts {
			switch pt.Status(id) {
			case txn.StatusCommitted:
				committed++
			case txn.StatusAborted:
				aborted++
			}
		}
		if failMask&7 == 0 {
			return committed == 3
		}
		return committed == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 16}); err != nil {
		t.Fatal(err)
	}
}

// newRand avoids importing math/rand at top level in multiple spots.
func newRand(seed int64) *randSrc {
	return &randSrc{state: uint64(seed)*2862933555777941757 + 3037000493}
}

type randSrc struct{ state uint64 }

func (r *randSrc) Intn(n int) int {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return int((r.state >> 33) % uint64(n))
}
