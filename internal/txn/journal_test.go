package txn

import (
	"fmt"
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

// Steady-state journal append must not get more expensive as the journal
// grows (it is never truncated).
func TestLogAllocsIndependentOfJournalLength(t *testing.T) {
	short, long := logAllocs(t, 100), logAllocs(t, 10_000)
	if long > short || short > 1 {
		t.Fatalf("Log allocates %v times on a 100-record journal and %v on a 10 000-record one; want no growth, at most 1", short, long)
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
