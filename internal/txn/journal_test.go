package txn

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
)

// soloParticipant is a participant on a one-node network, and a function
// that runs fn as a service process to completion.
func soloParticipant(tb testing.TB) (*Participant, func(fn func(p *sim.Proc))) {
	k := sim.NewKernel()
	net := netsim.New(k, 10*time.Microsecond)
	ep := portals.NewEndpoint(net, net.AddNode("server", netsim.Config{EgressBW: 230 << 20, IngressBW: 230 << 20}))
	pt := NewParticipant(ep, osd.NewDevice(k, "dev", osd.DefaultDiskParams()), 20)
	return pt, func(fn func(p *sim.Proc)) {
		k.Spawn("test", fn)
		if err := k.Run(sim.MaxTime); err != nil {
			tb.Fatal(err)
		}
	}
}

// The journal line is what fmt's "%d %s %s\n" always produced, and parsing
// it gives the record back — Detail included when it holds spaces (naming
// logs raw paths) or is empty.
func TestJournalRecordRoundTrip(t *testing.T) {
	recs := []JournalRecord{
		{Txn: 0x200000001, Kind: "create", Detail: "obj=7"},
		{Txn: 1, Kind: "name", Detail: "/runs/my run/step 3.dat"},
		{Txn: 2, Kind: "prepare"},
		{Txn: 1<<64 - 1, Kind: "setrefs", Detail: " leading and trailing "},
	}
	var journal []byte
	for _, r := range recs {
		line := r.appendTo(nil)
		if want := fmt.Sprintf("%d %s %s\n", uint64(r.Txn), r.Kind, r.Detail); string(line) != want {
			t.Errorf("encoded %q, want %q", line, want)
		}
		journal = append(journal, line...)
	}
	got := parseJournal(journal)
	if len(got) != len(recs) {
		t.Fatalf("parsed %d records, want %d: %+v", len(got), len(recs), got)
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d: parsed %+v, want %+v", i, got[i], recs[i])
		}
	}
}

// Lines that are not records — torn tails, garbage — are skipped.
func TestParseJournalSkipsMalformedLines(t *testing.T) {
	got := parseJournal([]byte("7 create a\nnot-a-number create b\n\n8\n9 commit \n10 abort"))
	want := []JournalRecord{{Txn: 7, Kind: "create", Detail: "a"}, {Txn: 9, Kind: "commit"}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("parsed %+v, want %+v", got, want)
	}
}

// FuzzParseJournal: parsing never panics, whatever the bytes; Outcomes
// never reports aborted for a transaction with a prepare naming its site and
// no decision (only the site knows); and every record whose Kind is
// non-empty and holds no space or newline and whose Detail holds no newline
// comes back from its own line unchanged.
func FuzzParseJournal(f *testing.F) {
	f.Add([]byte("7 create a\nnot-a-number create b\n\n8\n9 commit \n10 abort"), uint64(1), "name", "/runs/my run/step 3.dat")
	f.Add([]byte("18446744073709551615 setrefs  x \n"), uint64(1<<64-1), "setrefs", " leading and trailing ")
	f.Add([]byte("5 name /x\n77 commit forged\n"), uint64(5), "name", "/x\n77 commit forged")
	f.Add([]byte{}, uint64(0), "prepare", "")
	// A prepare naming its site, with and without the decision after it.
	f.Add([]byte("4 create obj=9\n4 created obj=9\n4 prepare site=3:13\n5 prepare site=3:13\n5 abort \n"), uint64(4), "prepare", "site=3:13")
	// A site's decide append: its deferred name and setrefs lines, then commit.
	f.Add([]byte("6 name /runs/a b\n6 setrefs /runs/a b\n6 commit \n"), uint64(6), "name", "/runs/a b")
	f.Add([]byte("8 prepare site=0:0\n8 prepare site=x:1\n8 prepare site=4294967296:2\n"), uint64(8), "prepare", "site=1:")
	f.Fuzz(func(t *testing.T, data []byte, id uint64, kind, detail string) {
		recs := parseJournal(data)
		out := Outcomes(recs)
		decided := map[ID]bool{}
		for _, r := range recs {
			decided[r.Txn] = decided[r.Txn] || r.Kind == "commit" || r.Kind == "abort"
		}
		for i := range recs {
			if _, ok := siteOf(&recs[i]); ok && !decided[recs[i].Txn] && out[recs[i].Txn] != StatusPrepared {
				t.Fatalf("%v names its site and has no decision, but resolves to %v", recs[i].Txn, out[recs[i].Txn])
			}
		}
		if kind == "" || strings.ContainsAny(kind, " \n") || strings.Contains(detail, "\n") {
			return
		}
		rec := JournalRecord{Txn: ID(id), Kind: kind, Detail: detail}
		if got := parseJournal(rec.appendTo(nil)); len(got) != 1 || got[0] != rec {
			t.Fatalf("%+v parsed back as %+v", rec, got)
		}
	})
}

// soloJournal is a journal on a fresh disk-class device, that device, and a
// function that runs fn as a process to completion.
func soloJournal(t *testing.T) (*Journal, *osd.Device, func(fn func(p *sim.Proc))) {
	k := sim.NewKernel()
	dev := osd.NewDevice(k, "dev", osd.DefaultDiskParams())
	return NewJournal(dev, JournalObjectID), dev, func(fn func(p *sim.Proc)) {
		k.Spawn("test", fn)
		if err := k.Run(sim.MaxTime); err != nil {
			t.Fatal(err)
		}
	}
}

func appendLine(t *testing.T, j *Journal, p *sim.Proc, line string) {
	if err := j.Append(p, netsim.BytesPayload([]byte(line))); err != nil {
		t.Error(err)
	}
}

// contents reads the whole journal object back.
func contents(t *testing.T, dev *osd.Device, p *sim.Proc) string {
	st, err := dev.Stat(JournalObjectID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dev.Read(p, JournalObjectID, 0, st.Size)
	if err != nil {
		t.Fatal(err)
	}
	return string(got.Data)
}

// A reborn owner — the same handle after Crash, or a new one on the same
// device — appends after its predecessor's tail and never overwrites it.
func TestJournalRebornOwnerAppendsAfterPredecessor(t *testing.T) {
	j, dev, run := soloJournal(t)
	run(func(p *sim.Proc) {
		appendLine(t, j, p, "first\n")
		j.Crash()
		appendLine(t, j, p, "second\n")
		appendLine(t, NewJournal(dev, JournalObjectID), p, "third\n")
		if got := contents(t, dev, p); got != "first\nsecond\nthird\n" {
			t.Fatalf("journal holds %q", got)
		}
	})
}

// Service threads appending at once — the first two racing to create the
// object — get disjoint ranges: every record lands whole.
func TestJournalConcurrentAppendsGetDisjointRanges(t *testing.T) {
	j, dev, run := soloJournal(t)
	run(func(p *sim.Proc) {
		var wg sim.WaitGroup
		var want []string
		for w := 0; w < 3; w++ {
			for i := 0; i < 4; i++ {
				want = append(want, fmt.Sprintf("thread %d record %d %s", w, i, strings.Repeat("x", 10*w+i)))
			}
			wg.Add(1)
			recs := want[len(want)-4:]
			p.Kernel().Spawn("thread", func(q *sim.Proc) {
				defer wg.Done()
				for _, r := range recs {
					appendLine(t, j, q, r+"\n")
				}
			})
		}
		wg.Wait(p)
		got := strings.Split(strings.TrimSuffix(contents(t, dev, p), "\n"), "\n")
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Fatalf("journal holds %q, want the records %q", got, want)
		}
	})
}

// Truncate refuses while an append is in flight: the append's write would
// land past the reset cursor and leave a hole where a record should start.
func TestJournalTruncateRefusedUnderInFlightAppend(t *testing.T) {
	j, dev, run := soloJournal(t)
	run(func(p *sim.Proc) {
		appendLine(t, j, p, "old\n")
		var wg sim.WaitGroup
		wg.Add(1)
		p.Kernel().Spawn("appender", func(q *sim.Proc) {
			defer wg.Done()
			appendLine(t, j, q, "in flight\n")
		})
		p.Sleep(time.Microsecond) // the appender has reserved and waits for the disk
		if j.Truncate(p) {
			t.Fatal("truncated under an in-flight append")
		}
		wg.Wait(p)
		if got := contents(t, dev, p); got != "old\nin flight\n" {
			t.Fatalf("journal holds %q", got)
		}
		if !j.Truncate(p) || j.Size() != 0 || contents(t, dev, p) != "" {
			t.Fatalf("quiet journal not truncated: size %d", j.Size())
		}
	})
}

// An append issued while Truncate waits for the disk lands at offset 0,
// after the truncate.
func TestJournalAppendDuringTruncateLandsAtZero(t *testing.T) {
	j, dev, run := soloJournal(t)
	run(func(p *sim.Proc) {
		appendLine(t, j, p, "old record\n")
		var wg sim.WaitGroup
		wg.Add(1)
		p.Kernel().Spawn("appender", func(q *sim.Proc) {
			defer wg.Done()
			q.Sleep(time.Microsecond) // the truncate is waiting for the disk
			appendLine(t, j, q, "new\n")
		})
		if !j.Truncate(p) {
			t.Fatal("quiet journal not truncated")
		}
		wg.Wait(p)
		if got := contents(t, dev, p); got != "new\n" || j.Size() != 4 {
			t.Fatalf("journal holds %q, cursor %d; want \"new\\n\" at 0", got, j.Size())
		}
	})
}

// A terminal transaction keeps its status but not its callbacks, which
// would pin the provisional objects they captured.
func TestTerminalTransactionDropsCallbacks(t *testing.T) {
	pt, run := soloParticipant(t)
	const committed, aborted ID = 1, 2
	ran := 0
	for _, id := range []ID{committed, aborted} {
		pt.OnCommit(id, func(*sim.Proc) { ran++ })
		pt.OnAbort(id, func(*sim.Proc) { ran++ })
	}
	run(func(p *sim.Proc) {
		if err := pt.prepare(p, committed, Endpoint{}); err != nil {
			t.Error(err)
		}
		if err := pt.commit(p, committed); err != nil {
			t.Error(err)
		}
		if err := pt.abort(p, aborted); err != nil {
			t.Error(err)
		}
	})
	if ran != 2 {
		t.Fatalf("%d callbacks ran, want 2", ran)
	}
	for id, want := range map[ID]Status{committed: StatusCommitted, aborted: StatusAborted} {
		st := pt.state[id]
		if st.status != want || st.onCommit != nil || st.onAbort != nil {
			t.Errorf("%v: status %v, %d commit and %d abort callbacks kept", id, st.status, len(st.onCommit), len(st.onAbort))
		}
	}
}

var benchRec = JournalRecord{Txn: 1, Kind: "write", Detail: "obj=12 off=4096 len=65536"}

// logN appends n copies of benchRec from process p.
func logN(tb testing.TB, pt *Participant, p *sim.Proc, n int) {
	for i := 0; i < n; i++ {
		if err := pt.Log(p, benchRec); err != nil {
			tb.Error(err)
			return
		}
	}
}

// logAllocs reports allocations per Participant.Log once the journal holds
// n records.
func logAllocs(t *testing.T, n int) float64 {
	pt, run := soloParticipant(t)
	var allocs float64
	run(func(p *sim.Proc) {
		logN(t, pt, p, n)
		allocs = testing.AllocsPerRun(200, func() { logN(t, pt, p, 1) })
	})
	return allocs
}

// Steady-state journal append allocates nothing, however long the journal
// grows (it is never truncated): the record is built on the logging
// process's stack and the device copies it (osd.Device.Append), so a store
// path that may keep its bytes would move it to the heap and fail this.
func TestLogAllocsIndependentOfJournalLength(t *testing.T) {
	short, long := logAllocs(t, 100), logAllocs(t, 10_000)
	if short != 0 || long != 0 {
		t.Fatalf("Log allocates %v times on a 100-record journal and %v on a 10 000-record one; want 0", short, long)
	}
}

func BenchmarkJournalAppend(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
	}{{"1k", 1 << 10}, {"32k", 32 << 10}} {
		b.Run(c.name, func(b *testing.B) {
			pt, run := soloParticipant(b)
			run(func(p *sim.Proc) { logN(b, pt, p, c.n) })
			b.ReportAllocs()
			b.ResetTimer()
			// One process appends b.N records to a journal that starts at
			// c.n; the kernel's dispatch of its disk waits is part of the
			// cost, as it is in a server.
			run(func(p *sim.Proc) { logN(b, pt, p, b.N) })
		})
	}
}

// A deferred record is not written when it is deferred: it rides the vote.
// As a prepared participant its lines and the prepare naming the site are
// one append under one barrier; as the site, its lines and the commit are.
func TestDeferredRecordsRideTheVote(t *testing.T) {
	pt, run := soloParticipant(t)
	site := Endpoint{Node: 3, Port: 13}
	run(func(p *sim.Proc) {
		logN(t, pt, p, 1) // the journal exists: no vote pays its create
		for _, c := range []struct {
			id   ID
			vote func() error
			want string
		}{
			{2, func() error { return pt.prepare(p, 2, site) }, "2 name /a b\n2 setrefs /a b\n2 prepare site=3:13\n"},
			{3, func() error { return pt.decide(p, 3) }, "3 name /a b\n3 setrefs /a b\n3 commit \n"},
		} {
			before := contents(t, pt.dev, p)
			for _, kind := range []string{"name", "setrefs"} {
				if err := pt.Defer(JournalRecord{Txn: c.id, Kind: kind, Detail: "/a b"}); err != nil {
					t.Fatal(err)
				}
			}
			_, _, _, writes, _, _ := pt.dev.Counters()
			syncs := pt.dev.Syncs()
			if got := contents(t, pt.dev, p); got != before {
				t.Fatalf("Defer wrote %q", got[len(before):])
			}
			if err := c.vote(); err != nil {
				t.Fatal(err)
			}
			_, _, _, w, _, _ := pt.dev.Counters()
			if w != writes+1 || pt.dev.Syncs() != syncs+1 {
				t.Errorf("%v's vote took %d appends and %d syncs, want 1 and 1", c.id, w-writes, pt.dev.Syncs()-syncs)
			}
			if got := contents(t, pt.dev, p)[len(before):]; got != c.want {
				t.Errorf("%v's vote wrote %q, want %q", c.id, got, c.want)
			}
		}
		if err := pt.Defer(JournalRecord{Txn: 3, Kind: "name", Detail: "/late"}); !errors.Is(err, ErrTerminal) {
			t.Errorf("Defer after the decision = %v, want ErrTerminal", err)
		}
	})
}

// A site asked about a transaction it has not decided aborts it, the abort
// record written before the answer, and refuses a decide that comes later:
// the answer it gave stands.
func TestSiteAskedBeforeDecidingRefusesALateDecide(t *testing.T) {
	pt, run := soloParticipant(t)
	undone := false
	run(func(p *sim.Proc) {
		pt.OnAbort(1, func(*sim.Proc) { undone = true })
		if st, err := pt.status(p, 1); err != nil || st != StatusAborted {
			t.Fatalf("status of an undecided transaction = %v, %v; want aborted", st, err)
		}
		if err := pt.decide(p, 1); !errors.Is(err, ErrTerminal) {
			t.Errorf("late decide = %v, want ErrTerminal", err)
		}
		if got := contents(t, pt.dev, p); got != "1 abort \n" {
			t.Errorf("journal = %q, want the abort alone", got)
		}
	})
	if !undone {
		t.Error("the abort did not undo the provisional work")
	}
}

// A status ask that arrives while the site's decision is being written waits
// for it and answers committed, instead of aborting under it.
func TestSiteStatusWaitsForADecisionInFlight(t *testing.T) {
	pt, run := soloParticipant(t)
	run(func(p *sim.Proc) {
		var st Status
		var wg sim.WaitGroup
		wg.Add(1)
		p.Kernel().Spawn("decide", func(q *sim.Proc) {
			defer wg.Done()
			if err := pt.decide(q, 1); err != nil {
				t.Error(err)
			}
		})
		p.Sleep(time.Microsecond) // the decide's append is on the disk
		st, err := pt.status(p, 1)
		wg.Wait(p)
		if err != nil || st != StatusCommitted {
			t.Errorf("status during the decision = %v, %v; want committed", st, err)
		}
		if got := contents(t, pt.dev, p); got != "1 commit \n" {
			t.Errorf("journal = %q, want the commit alone", got)
		}
	})
}
