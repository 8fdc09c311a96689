package osd

import (
	"errors"
	"fmt"
	"time"

	"lwfs/internal/netsim"
	"lwfs/internal/sim"
)

// ObjectID names an object on a device. IDs are device-local.
type ObjectID uint64

// ContainerID names the access-control container an object belongs to
// (paper §3.1.1). Containers are created by the authorization service;
// devices only tag objects with them and enforce nothing further — policy
// enforcement happens in the storage service using capabilities.
type ContainerID uint64

// Errors reported by device operations.
var (
	ErrNoObject = errors.New("osd: no such object")
	ErrExists   = errors.New("osd: object already exists")
)

// DiskParams calibrate the simulated disk behind a device.
type DiskParams struct {
	BandwidthBps  float64       // sustained transfer bandwidth, bytes/second
	PerOpOverhead time.Duration // positioning/submission cost per disk operation; a coalesced Append pays none
	CreateCost    time.Duration // allocate + metadata update for object create
	RemoveCost    time.Duration // deallocate cost
	SyncCost      time.Duration // cache flush barrier cost
}

// DefaultDiskParams model one OST's share of the paper's LSI MetaStor
// fibre-channel RAID (two storage servers per node sharing the array).
func DefaultDiskParams() DiskParams {
	return DiskParams{
		BandwidthBps:  95e6,
		PerOpOverhead: 200 * time.Microsecond,
		CreateCost:    240 * time.Microsecond,
		RemoveCost:    240 * time.Microsecond,
		SyncCost:      500 * time.Microsecond,
	}
}

// BurstJournalParams model the buffer-local journal media of a burst-buffer
// node: NVRAM/SSD-class rather than spinning RAID — high bandwidth, cheap
// submission, and a fast flush barrier. Appending a staged extent to such a
// journal costs far less than the extent's eventual drain to the storage
// partition, which is what makes journaled staging's ack latency close to
// memory-only staging (the E16 sweep measures the gap).
func BurstJournalParams() DiskParams {
	return DiskParams{
		BandwidthBps:  1 << 30, // 1 GB/s append stream
		PerOpOverhead: 10 * time.Microsecond,
		CreateCost:    20 * time.Microsecond,
		RemoveCost:    20 * time.Microsecond,
		SyncCost:      25 * time.Microsecond,
	}
}

// Object is one stored object with its data and extended attributes.
type Object struct {
	ID        ObjectID
	Container ContainerID
	Data      Blob
	Attrs     map[string]string // nil until the first SetAttr
	Created   sim.Time
	Modified  sim.Time
}

// Stat is the metadata snapshot returned by Device.Stat.
type Stat struct {
	ID        ObjectID
	Container ContainerID
	Size      int64
	Created   sim.Time
	Modified  sim.Time
}

// Device is an object-based storage device: a flat object namespace over a
// FIFO disk. All blocking methods must be called from a simulated process
// on the device's node (the storage service).
type Device struct {
	k       *sim.Kernel
	name    string
	disk    *sim.FIFOServer
	params  DiskParams
	objects map[ObjectID]*Object
	nextID  ObjectID

	// The device is its disk's only user, so it keeps the queue's state for
	// group commit itself: tail is the last job queued, barrier the last
	// flush barrier.
	tail, barrier diskJob
	merged        int64 // appends that joined the tail, paying no positioning cost
	shared        int64 // Syncs that joined a barrier not yet started

	creates, removes, reads, writes, syncs int64
	bytesRead, bytesWritten                int64
}

// diskJob is the device's note of one job it queued on its disk.
type diskJob struct {
	start, finish sim.Time
	kind          jobKind
	obj           ObjectID // an append's object
	end           int64    // the offset just past an append's record
}

type jobKind uint8

const (
	jobOther jobKind = iota
	jobAppend
	jobBarrier
)

// NewDevice creates a device with the given disk parameters.
func NewDevice(k *sim.Kernel, name string, params DiskParams) *Device {
	if params.BandwidthBps <= 0 {
		panic(fmt.Sprintf("osd: device %q: non-positive bandwidth", name))
	}
	return &Device{
		k:       k,
		name:    name,
		disk:    sim.NewFIFOServer(k, name+"/disk"),
		params:  params,
		objects: make(map[ObjectID]*Object),
	}
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// NumObjects reports the number of live objects.
func (d *Device) NumObjects() int { return len(d.objects) }

// Counters reports operation counts: creates, removes, reads, writes and
// bytes moved.
func (d *Device) Counters() (creates, removes, reads, writes, bytesRead, bytesWritten int64) {
	return d.creates, d.removes, d.reads, d.writes, d.bytesRead, d.bytesWritten
}

// Syncs reports the flush barriers callers asked for, a shared one counted
// once per caller.
func (d *Device) Syncs() int64 { return d.syncs }

// DiskBusy reports accumulated disk service time (for utilization reports).
func (d *Device) DiskBusy() time.Duration { return d.disk.BusyTime() }

// enqueue notes a job of the given service time as the disk's new tail and
// returns the service time for the caller to wait on. The note is taken
// before the caller blocks, so a caller arriving meanwhile sees it. It does
// not wait itself: a helper that did would add a frame to the stack of every
// process parked on a disk.
func (d *Device) enqueue(service time.Duration, kind jobKind) time.Duration {
	start := max(d.k.Now(), d.tail.finish)
	d.tail = diskJob{start: start, finish: start.Add(service), kind: kind}
	return service
}

// Create allocates a new object in container cid and returns it after the
// create cost has been paid on the disk.
func (d *Device) Create(p *sim.Proc, cid ContainerID) *Object {
	d.disk.Wait(p, d.enqueue(d.params.CreateCost, jobOther))
	d.nextID++
	obj := &Object{
		ID:        d.nextID,
		Container: cid,
		Created:   d.k.Now(),
		Modified:  d.k.Now(),
	}
	d.objects[obj.ID] = obj
	d.creates++
	return obj
}

// ReservedIDBase marks the top of the object-ID space reserved for system
// objects with well-known IDs (transaction journals). IDs at or above it
// never influence the device's allocation counter.
const ReservedIDBase ObjectID = 1 << 62

// CreateWithID allocates an object with a caller-chosen ID (used by
// journal replay, layered file systems that embed IDs in metadata, and
// well-known system objects above ReservedIDBase).
func (d *Device) CreateWithID(p *sim.Proc, id ObjectID, cid ContainerID) (*Object, error) {
	d.disk.Wait(p, d.enqueue(d.params.CreateCost, jobOther))
	if _, ok := d.objects[id]; ok {
		return nil, ErrExists
	}
	if id > d.nextID && id < ReservedIDBase {
		d.nextID = id
	}
	obj := &Object{
		ID:        id,
		Container: cid,
		Created:   d.k.Now(),
		Modified:  d.k.Now(),
	}
	d.objects[id] = obj
	d.creates++
	return obj, nil
}

// Lookup returns the object with the given ID without touching the disk.
func (d *Device) Lookup(id ObjectID) (*Object, error) {
	obj, ok := d.objects[id]
	if !ok {
		return nil, ErrNoObject
	}
	return obj, nil
}

// Write stores payload at offset off in object id, paying per-op overhead
// plus size/bandwidth on the disk (write-through). Real bytes are copied; a
// seeded run is stored as a run (Blob).
func (d *Device) Write(p *sim.Proc, id ObjectID, off int64, payload netsim.Payload) error {
	if _, ok := d.objects[id]; !ok {
		return ErrNoObject
	}
	d.disk.Wait(p, d.enqueue(d.params.PerOpOverhead+sim.Rate(payload.Size, d.params.BandwidthBps), jobOther))
	return d.store(id, off, payload)
}

// Append writes a log record at offset off of object id, as Write does,
// with group commit: when the disk's last queued job is an append to the
// same object that ends exactly at off and has not started yet, the record
// is queued right behind it and pays only its transfer time, the head being
// in place already. Nothing can come between the two: that job is the
// queue's tail. Any other job queued since — a data write, a Truncate,
// Remove or CreateWithID of the log object — is the tail instead, and the
// record pays its own positioning cost. The record is copied, so a caller's
// buffer may live on its stack.
func (d *Device) Append(p *sim.Proc, id ObjectID, off int64, payload netsim.Payload) error {
	if _, ok := d.objects[id]; !ok {
		return ErrNoObject
	}
	service := sim.Rate(payload.Size, d.params.BandwidthBps)
	if t := &d.tail; t.kind == jobAppend && t.obj == id && t.end == off && t.start >= d.k.Now() {
		d.merged++
	} else {
		service += d.params.PerOpOverhead
	}
	d.enqueue(service, jobAppend)
	d.tail.obj, d.tail.end = id, off+payload.Size
	d.disk.Wait(p, service)
	return d.store(id, off, payload)
}

// store lands a write whose disk time has been paid (Blob.Write).
func (d *Device) store(id ObjectID, off int64, payload netsim.Payload) error {
	// Re-fetch: the object may have been removed, or removed and re-created
	// under the same ID, while we were queued.
	obj, ok := d.objects[id]
	if !ok {
		return ErrNoObject
	}
	obj.Data.Write(off, payload)
	obj.Modified = d.k.Now()
	d.writes++
	d.bytesWritten += payload.Size
	return nil
}

// Read returns [off, off+length) of object id, paying disk costs.
func (d *Device) Read(p *sim.Proc, id ObjectID, off, length int64) (netsim.Payload, error) {
	return d.read(p, id, off, length, false)
}

// ReadSynthetic pays the full disk cost of reading [off, off+length) of
// object id but returns a size-only payload without materializing bytes.
// Journal replay uses it for records whose payload was synthetic (size-only
// benchmark data): the recovery *time* is real even when the content never
// was, and replaying a multi-gigabyte synthetic window must not allocate it.
func (d *Device) ReadSynthetic(p *sim.Proc, id ObjectID, off, length int64) (netsim.Payload, error) {
	return d.read(p, id, off, length, true)
}

func (d *Device) read(p *sim.Proc, id ObjectID, off, length int64, synthetic bool) (netsim.Payload, error) {
	obj, ok := d.objects[id]
	if !ok {
		return netsim.Payload{}, ErrNoObject
	}
	if off+length > obj.Data.Size() {
		if off >= obj.Data.Size() {
			return netsim.Payload{}, nil // EOF
		}
		length = obj.Data.Size() - off
	}
	d.disk.Wait(p, d.enqueue(d.params.PerOpOverhead+sim.Rate(length, d.params.BandwidthBps), jobOther))
	if obj, ok = d.objects[id]; !ok {
		return netsim.Payload{}, ErrNoObject
	}
	d.reads++
	d.bytesRead += length
	if synthetic {
		return netsim.SyntheticPayload(length), nil
	}
	return obj.Data.Read(off, length), nil
}

// Remove deletes object id.
func (d *Device) Remove(p *sim.Proc, id ObjectID) error {
	if _, ok := d.objects[id]; !ok {
		return ErrNoObject
	}
	d.disk.Wait(p, d.enqueue(d.params.RemoveCost, jobOther))
	delete(d.objects, id)
	d.removes++
	return nil
}

// Truncate sets the object's logical size, discarding data past it.
func (d *Device) Truncate(p *sim.Proc, id ObjectID, size int64) error {
	if _, ok := d.objects[id]; !ok {
		return ErrNoObject
	}
	d.disk.Wait(p, d.enqueue(d.params.PerOpOverhead, jobOther))
	obj, ok := d.objects[id]
	if !ok {
		return ErrNoObject
	}
	obj.Data.Truncate(size)
	obj.Modified = d.k.Now()
	return nil
}

// Stat returns object metadata (no disk cost: attributes are cached on the
// device controller).
func (d *Device) Stat(id ObjectID) (Stat, error) {
	obj, ok := d.objects[id]
	if !ok {
		return Stat{}, ErrNoObject
	}
	return Stat{
		ID:        obj.ID,
		Container: obj.Container,
		Size:      obj.Data.Size(),
		Created:   obj.Created,
		Modified:  obj.Modified,
	}, nil
}

// Sync is the flush barrier, fsync-like durability for the caller's writes:
// it blocks until every job queued ahead of the barrier has completed, plus
// the barrier cost. A barrier already queued that has not started covers the
// caller too — its writes completed before Sync was called, so before that
// barrier starts — and Sync joins it, returning when it ends. Otherwise it
// queues its own.
func (d *Device) Sync(p *sim.Proc) {
	d.syncs++
	if b := &d.barrier; b.kind == jobBarrier && b.start >= d.k.Now() {
		d.shared++
		p.Sleep(b.finish.Sub(d.k.Now()))
		return
	}
	d.enqueue(d.params.SyncCost, jobBarrier)
	d.barrier = d.tail
	d.disk.Wait(p, d.params.SyncCost)
}

// SetAttr sets a named attribute on an object.
func (d *Device) SetAttr(p *sim.Proc, id ObjectID, key, value string) error {
	obj, ok := d.objects[id]
	if !ok {
		return ErrNoObject
	}
	d.disk.Wait(p, d.enqueue(d.params.PerOpOverhead, jobOther))
	if obj.Attrs == nil {
		obj.Attrs = make(map[string]string)
	}
	obj.Attrs[key] = value
	return nil
}

// GetAttr reads a named attribute.
func (d *Device) GetAttr(id ObjectID, key string) (string, error) {
	obj, ok := d.objects[id]
	if !ok {
		return "", ErrNoObject
	}
	return obj.Attrs[key], nil
}

// ListContainer returns the IDs of live objects in a container, in
// ascending ID order.
func (d *Device) ListContainer(cid ContainerID) []ObjectID {
	var ids []ObjectID
	for id, obj := range d.objects {
		if obj.Container == cid {
			ids = append(ids, id)
		}
	}
	sortIDs(ids)
	return ids
}

func sortIDs(ids []ObjectID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
