package txn

import (
	"errors"
	"fmt"

	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/sim"
)

// Journal is an append-only log kept in one object with a well-known ID on a
// device: the one write-ahead log of the system (§3.4). The transaction
// participant appends its line records to one, the burst buffer its staging
// records to another; each owner brings only its record format. The Journal
// owns the rules that make appending safe:
//
//   - Open on first use: create the object, or adopt one a crashed
//     predecessor left and append after its tail.
//   - Reserve a record's range before its first blocking write, so
//     concurrent service threads get disjoint ranges.
//   - Crash forgets the open handle; the object survives on the device.
//   - Truncate to zero only when no append is in flight — a write still on
//     its way to the disk would land past the reset cursor and leave a hole
//     where a record should start — and reset the cursor before blocking, so
//     an append issued meanwhile lands at zero, after the truncate.
type Journal struct {
	dev      *osd.Device
	id       osd.ObjectID
	off      int64 // append cursor, valid while opened
	opened   bool
	inflight int // appends whose range is reserved and whose writes have not all returned
}

// journalContainer tags journal objects; container 0 is reserved for system
// state and is never issued by the authorization service (IDs start at 1).
const journalContainer osd.ContainerID = 0

// NewJournal returns the journal kept in object id on dev. Nothing touches
// the device until the first append.
func NewJournal(dev *osd.Device, id osd.ObjectID) *Journal {
	return &Journal{dev: dev, id: id}
}

// open creates the journal object on first use, or adopts the size a
// predecessor left. Concurrent first users may both create; losing that race
// is fine, the object exists either way.
func (j *Journal) open(p *sim.Proc) {
	if _, err := j.dev.Stat(j.id); err != nil {
		if _, err := j.dev.CreateWithID(p, j.id, journalContainer); err != nil && !errors.Is(err, osd.ErrExists) {
			panic(fmt.Sprintf("txn: creating journal on %s: %v", j.dev.Name(), err))
		}
	}
	if st, err := j.dev.Stat(j.id); err == nil && st.Size > j.off {
		j.off = st.Size
	}
	j.opened = true
}

// Append writes one record, its parts back to back, at the tail.
func (j *Journal) Append(p *sim.Proc, parts ...netsim.Payload) error {
	if !j.opened {
		j.open(p)
	}
	off := j.off
	for i := range parts {
		j.off += parts[i].Size
	}
	j.inflight++
	for i := range parts {
		if err := j.dev.Append(p, j.id, off, parts[i]); err != nil {
			j.inflight--
			return err
		}
		off += parts[i].Size
	}
	j.inflight--
	return nil
}

// Size is the append cursor: the bytes the journal holds once every append
// issued so far has landed.
func (j *Journal) Size() int64 { return j.off }

// Truncate empties the journal and reports whether it did. It refuses while
// any append is in flight.
func (j *Journal) Truncate(p *sim.Proc) bool {
	if !j.opened || j.inflight > 0 {
		return false
	}
	j.off = 0
	return j.dev.Truncate(p, j.id, 0) == nil
}

// Crash forgets the open handle, as a fail-stopped owner does. Appends
// already issued still land; the next append opens the journal again.
func (j *Journal) Crash() {
	j.opened = false
	j.off = 0
}
