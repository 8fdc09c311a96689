package txn_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/testrig"
	"lwfs/internal/txn"
)

// kinds lists a participant's journal record kinds, ";"-terminated.
func kinds(t *testing.T, pt *txn.Participant, p *sim.Proc) string {
	t.Helper()
	recs, err := pt.ReadJournal(p)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range recs {
		b.WriteString(r.Kind + ";")
	}
	return b.String()
}

// The split outcome two-phase commit used to allow: participant 1's commit
// crashes participant 2 before its own commit arrives. Commit still returns
// nil (the site decided), and participant 2, restarted, asks the site and
// commits too, instead of presuming abort.
func TestParticipantCrashBetweenCommitsStillCommits(t *testing.T) {
	r := testrig.New(5)
	pt1, _ := bootParticipant(r, 1)
	pt2, _ := bootParticipant(r, 2)
	site, _ := bootParticipant(r, 3)
	co := txn.NewCoordinator(impatientCaller(r, 4))
	var id txn.ID
	r.Go("client", func(p *sim.Proc) {
		tx := co.Begin()
		id = tx.ID
		for i := 1; i <= 3; i++ {
			tx.Enlist(endpoint(r, i))
		}
		pt1.OnCommit(id, func(*sim.Proc) { pt2.Crash() })
		if err := tx.Commit(p); err != nil {
			t.Fatalf("commit with a participant crashed between commits: %v", err)
		}
		p.Sleep(50 * time.Millisecond)
		pt2.Restart()
		if _, out, err := pt2.Recover(p); err != nil || out[id] != txn.StatusCommitted {
			t.Errorf("participant 2 recovered %v as %v (%v), want committed", id, out[id], err)
		}
	})
	r.Run(t)
	for i, pt := range []*txn.Participant{pt1, pt2, site} {
		if st := pt.Status(id); st != txn.StatusCommitted {
			t.Errorf("participant %d is %v, want committed", i+1, st)
		}
	}
}

// The site crashes after its commit record is written, before its answer
// leaves: Commit is in doubt, the others stay prepared, and once the site
// restarts the helper learns the decision and commits them.
func TestSiteCrashAfterLoggingCommitCommitsOthersAfterRestart(t *testing.T) {
	r := testrig.New(4)
	pt1, _ := bootParticipant(r, 1)
	site, _ := bootParticipant(r, 2)
	co := txn.NewCoordinator(impatientCaller(r, 3))
	var id txn.ID
	r.Go("client", func(p *sim.Proc) {
		tx := co.Begin()
		id = tx.ID
		tx.Enlist(endpoint(r, 1))
		tx.Enlist(endpoint(r, 2))
		site.OnCommit(id, func(*sim.Proc) { site.Crash() })
		err := tx.Commit(p)
		if !errors.Is(err, txn.ErrInDoubt) || !portals.FailStop(err) {
			t.Fatalf("commit whose site crashed after deciding = %v, want ErrInDoubt, read as fail-stop", err)
		}
		if st := pt1.Status(id); st != txn.StatusPrepared {
			t.Errorf("participant 1 is %v before the site answers, want prepared", st)
		}
		p.Sleep(300 * time.Millisecond)
		site.Restart()
		if _, out, err := site.Recover(p); err != nil || out[id] != txn.StatusCommitted {
			t.Errorf("the site recovered %v as %v (%v), want committed: its commit record is on disk", id, out[id], err)
		}
	})
	r.Run(t)
	if st := pt1.Status(id); st != txn.StatusCommitted {
		t.Errorf("participant 1 is %v, want committed", st)
	}
}

// A site the coordinator cannot reach leaves Commit in doubt; after Heal
// the helper's status ask makes the site decide abort — it never decided —
// and the prepared participant aborts too.
func TestPartitionedSiteResolvesAfterHeal(t *testing.T) {
	r := testrig.New(4)
	pt1, _ := bootParticipant(r, 1)
	site, _ := bootParticipant(r, 2)
	co := txn.NewCoordinator(impatientCaller(r, 3))
	var id txn.ID
	undone := false
	r.Go("client", func(p *sim.Proc) {
		tx := co.Begin()
		id = tx.ID
		tx.Enlist(endpoint(r, 1))
		tx.Enlist(endpoint(r, 2))
		pt1.OnAbort(id, func(*sim.Proc) { undone = true })
		cut := r.Net.Partition([]netsim.NodeID{r.Eps[2].Node()}, []netsim.NodeID{r.Eps[3].Node()})
		if err := tx.Commit(p); !errors.Is(err, txn.ErrInDoubt) {
			t.Fatalf("commit with the site cut off = %v, want ErrInDoubt", err)
		}
		p.Sleep(time.Second)
		if st := pt1.Status(id); st != txn.StatusPrepared {
			t.Errorf("participant 1 is %v while the site is cut off, want prepared", st)
		}
		cut.Heal()
	})
	r.Run(t)
	if st := pt1.Status(id); st != txn.StatusAborted || !undone {
		t.Errorf("participant 1 is %v (undone %v), want aborted and undone", st, undone)
	}
	if st := site.Status(id); st != txn.StatusAborted {
		t.Errorf("the site is %v, want aborted", st)
	}
	r.Go("check", func(p *sim.Proc) {
		if got := kinds(t, site, p); got != "abort;" {
			t.Errorf("the site's journal = %q, want the abort it logged before answering", got)
		}
	})
	r.Run(t)
}

// A participant that recovers while its site is unreachable keeps the
// transaction prepared and counts it in doubt; its own daemon asks the site
// again and commits once the site answers. The coordinator never reaches
// it, so the answer can only come from the site.
func TestInDoubtPrepareAsksItsSiteAgainAfterRecovery(t *testing.T) {
	r := testrig.New(4)
	pt1, _ := bootParticipant(r, 1)
	site, _ := bootParticipant(r, 2)
	co := txn.NewCoordinator(impatientCaller(r, 3))
	node := func(i int) []netsim.NodeID { return []netsim.NodeID{r.Eps[i].Node()} }
	var id txn.ID
	r.Go("client", func(p *sim.Proc) {
		tx := co.Begin()
		id = tx.ID
		tx.Enlist(endpoint(r, 1))
		tx.Enlist(endpoint(r, 2))
		var fromSite *netsim.Fault
		site.OnCommit(id, func(*sim.Proc) {
			pt1.Crash()
			fromSite = r.Net.Partition(node(1), node(2))
			r.Net.Partition(node(1), node(3))
		})
		if err := tx.Commit(p); err != nil {
			t.Fatalf("commit: %v", err)
		}
		p.Sleep(50 * time.Millisecond)
		pt1.Restart()
		if _, out, err := pt1.Recover(p); err != nil || out[id] != txn.StatusPrepared {
			t.Errorf("recovered %v as %v (%v) with the site cut off, want prepared", id, out[id], err)
		}
		if n := r.Metric("txn.dev1.in_doubt"); n != 1 {
			t.Errorf("in_doubt = %d, want 1", n)
		}
		p.Sleep(time.Second)
		fromSite.Heal()
	})
	r.Run(t)
	if st := pt1.Status(id); st != txn.StatusCommitted {
		t.Errorf("participant 1 is %v, want committed", st)
	}
	if n := r.Metric("txn.dev1.in_doubt"); n != 0 {
		t.Errorf("in_doubt = %d once the site answered, want 0", n)
	}
}

// The site votes no: every participant aborts, the site included, and
// Commit says so.
func TestSiteVoteNoAbortsEveryone(t *testing.T) {
	r := testrig.New(4)
	pt1, _ := bootParticipant(r, 1)
	site, _ := bootParticipant(r, 2)
	site.FailPrepare = func(txn.ID) bool { return true }
	co := txn.NewCoordinator(r.Caller(3))
	var id txn.ID
	r.Go("client", func(p *sim.Proc) {
		tx := co.Begin()
		id = tx.ID
		tx.Enlist(endpoint(r, 1))
		tx.Enlist(endpoint(r, 2))
		if err := tx.Commit(p); !errors.Is(err, txn.ErrAborted) || errors.Is(err, txn.ErrInDoubt) {
			t.Fatalf("commit with a site voting no = %v, want ErrAborted", err)
		}
	})
	r.Run(t)
	if pt1.Status(id) != txn.StatusAborted || site.Status(id) != txn.StatusAborted {
		t.Fatalf("statuses %v %v, want both aborted", pt1.Status(id), site.Status(id))
	}
}
