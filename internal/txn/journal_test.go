package txn

import (
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

// FuzzParseJournal: parsing never panics, whatever the bytes, and every
// record whose Kind is non-empty and holds no space or newline and whose
// Detail holds no newline comes back from its own line unchanged.
func FuzzParseJournal(f *testing.F) {
	f.Add([]byte("7 create a\nnot-a-number create b\n\n8\n9 commit \n10 abort"), uint64(1), "name", "/runs/my run/step 3.dat")
	f.Add([]byte("18446744073709551615 setrefs  x \n"), uint64(1<<64-1), "setrefs", " leading and trailing ")
	f.Add([]byte("5 name /x\n77 commit forged\n"), uint64(5), "name", "/x\n77 commit forged")
	f.Add([]byte{}, uint64(0), "prepare", "")
	f.Fuzz(func(t *testing.T, data []byte, id uint64, kind, detail string) {
		parseJournal(data)
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
		if err := pt.prepare(p, committed); err != nil {
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
