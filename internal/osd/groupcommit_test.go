package osd

import (
	"testing"
	"time"

	"lwfs/internal/netsim"
	"lwfs/internal/sim"
)

// Object IDs the group-commit scenarios use: one data object, two logs.
const (
	dataObj ObjectID = 1
	logA    ObjectID = 100
	logB    ObjectID = 101
)

// step is one process's part in a group-commit scenario.
type step = func(p *sim.Proc, d *Device)

// queueBehind creates dataObj, logA and logB, then at 1 ms queues a data
// write of hold bytes (none if hold is 0) and runs step i at 1 ms + (i+1) µs
// — behind that write, while it still holds the disk. It returns the device
// and the instant each step returned.
func queueBehind(t *testing.T, hold int64, steps ...step) (*Device, []sim.Time) {
	t.Helper()
	k := sim.NewKernel()
	d := NewDevice(k, "osd0", testParams())
	k.Spawn("setup", func(p *sim.Proc) {
		d.Create(p, 1)
		for _, id := range []ObjectID{logA, logB} {
			if _, err := d.CreateWithID(p, id, 0); err != nil {
				t.Error(err)
			}
		}
	})
	at := sim.Time(time.Millisecond)
	if hold > 0 {
		k.SpawnAt(at, "hold", func(p *sim.Proc) {
			if err := d.Write(p, dataObj, 0, netsim.SyntheticPayload(hold)); err != nil {
				t.Error(err)
			}
		})
	}
	done := make([]sim.Time, len(steps))
	for i, step := range steps {
		k.SpawnAt(at.Add(time.Duration(i+1)*time.Microsecond), "step", func(p *sim.Proc) {
			step(p, d)
			done[i] = p.Now()
		})
	}
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	return d, done
}

func appendRec(t *testing.T, id ObjectID, off, size int64) step {
	return func(p *sim.Proc, d *Device) {
		if err := d.Append(p, id, off, netsim.SyntheticPayload(size)); err != nil {
			t.Error(err)
		}
	}
}

func rate(size int64) time.Duration { return sim.Rate(size, testParams().BandwidthBps) }

// Two contiguous appends to one log, the second arriving while the first
// is still queued, share one positioning cost: the second is queued right
// behind the first and pays its transfer time only.
func TestAppendsShareOnePositioningCost(t *testing.T) {
	const hold = 4 * mb
	d, done := queueBehind(t, hold, appendRec(t, logA, 0, 100), appendRec(t, logA, 100, 60))
	if d.merged != 1 {
		t.Fatalf("%d appends joined, want 1", d.merged)
	}
	op := testParams().PerOpOverhead
	first := sim.Time(time.Millisecond).Add(op + rate(hold) + op + rate(100))
	if done[0] != first || done[1] != first.Add(rate(60)) {
		t.Fatalf("appends done at %v and %v, want %v and %v", done[0], done[1], first, first.Add(rate(60)))
	}
	if st, _ := d.Stat(logA); st.Size != 160 {
		t.Fatalf("log holds %d bytes, want 160", st.Size)
	}
}

// An append that arrives after the job it would join has started pays its
// own positioning cost.
func TestAppendAfterStartPaysOwnCost(t *testing.T) {
	d, done := queueBehind(t, 0, appendRec(t, logA, 0, 100), appendRec(t, logA, 100, 60))
	if d.merged != 0 {
		t.Fatalf("an append joined a started job")
	}
	op := testParams().PerOpOverhead
	if want := done[0].Add(op + rate(60)); done[1] != want {
		t.Fatalf("second append done at %v, want %v", done[1], want)
	}
}

// Only the queue's tail can be joined, and only by the record that starts
// where it ends in the same log.
func TestAppendJoinNeedsAdjacentTail(t *testing.T) {
	dataWrite := func(p *sim.Proc, d *Device) { d.Write(p, dataObj, 0, netsim.SyntheticPayload(10)) } //nolint:errcheck
	first := appendRec(t, logA, 0, 100)
	for name, steps := range map[string][]step{
		"data write between": {first, dataWrite, appendRec(t, logA, 100, 60)},
		"other log":          {first, appendRec(t, logB, 100, 60)},
		"gap":                {first, appendRec(t, logA, 101, 60)},
		"overlap":            {first, appendRec(t, logA, 99, 60)},
	} {
		t.Run(name, func(t *testing.T) {
			if d, _ := queueBehind(t, 4*mb, steps...); d.merged != 0 {
				t.Fatalf("%d appends joined", d.merged)
			}
		})
	}
}

// After a Truncate, or a Remove and re-create, of the log, an append never
// joins a job queued before it — not even one that ends where it starts.
func TestAppendAfterResetNeverJoins(t *testing.T) {
	truncate := func(p *sim.Proc, d *Device) { d.Truncate(p, logA, 100) }   //nolint:errcheck
	remove := func(p *sim.Proc, d *Device) { d.Remove(p, logA) }            //nolint:errcheck
	recreate := func(p *sim.Proc, d *Device) { d.CreateWithID(p, logA, 0) } //nolint:errcheck
	for name, reset := range map[string][]step{
		"truncate":             {truncate},
		"remove and re-create": {remove, recreate},
	} {
		t.Run(name, func(t *testing.T) {
			steps := append([]step{appendRec(t, logA, 0, 100)}, reset...)
			if d, _ := queueBehind(t, 4*mb, append(steps, appendRec(t, logA, 100, 60))...); d.merged != 0 {
				t.Fatalf("an append joined across a %s", name)
			}
		})
	}
}

// A Sync arriving while a flush barrier is queued but not started shares it
// and returns when it ends; one arriving after the barrier started queues
// its own.
func TestSyncSharesBarrierNotStarted(t *testing.T) {
	const hold = 4 * mb
	dp := testParams()
	barrierEnd := sim.Time(time.Millisecond).Add(dp.PerOpOverhead + rate(hold) + dp.SyncCost)
	sync := func(p *sim.Proc, d *Device) { d.Sync(p) }
	late := func(p *sim.Proc, d *Device) {
		p.Sleep(barrierEnd.Sub(p.Now()) - dp.SyncCost/2) // the barrier is running
		d.Sync(p)
	}
	d, done := queueBehind(t, hold, sync, sync, late)
	if d.shared != 1 {
		t.Fatalf("%d Syncs shared a barrier, want 1", d.shared)
	}
	if done[0] != barrierEnd || done[1] != barrierEnd {
		t.Fatalf("Syncs done at %v and %v, want both at %v", done[0], done[1], barrierEnd)
	}
	if want := barrierEnd.Add(dp.SyncCost); done[2] != want {
		t.Fatalf("Sync during a running barrier done at %v, want %v (its own barrier)", done[2], want)
	}
	busy := dp.CreateCost*3 + dp.PerOpOverhead + rate(hold) + 2*dp.SyncCost
	if d.DiskBusy() != busy {
		t.Fatalf("disk busy %v, want %v: two barriers, not three", d.DiskBusy(), busy)
	}
}
