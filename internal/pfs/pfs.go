// Package pfs implements the *baseline* for the paper's evaluation (§4): a
// traditional parallel file system shaped like Lustre 1.x, built over the
// same simulated network and disks as LWFS so that the comparison isolates
// the architectural differences the paper isolates:
//
//   - Every file create and open goes through a centralized metadata
//     server whose namespace updates serialize — the ceiling in Figure 10b
//     that makes file-per-process checkpoints metadata-bound at scale.
//   - Files are striped over object storage targets (OSTs), and writes are
//     covered by per-object extent locks with callback revocation. A file
//     shared by many writers ping-pongs those locks: each holder switch
//     costs a revocation round trip, and lock-covered service forfeits the
//     pull/disk pipelining a single-writer object enjoys — the "consistency
//     and synchronization semantics get in the way" effect that halves
//     shared-file throughput in Figure 9.
//   - Clients are trusted (no capabilities), as Lustre trusts the client
//     kernel (§5).
package pfs

import (
	"errors"
	"time"

	"lwfs/internal/osd"
	"lwfs/internal/portals"
	"lwfs/internal/storage"
	"lwfs/internal/stripe"
)

// Well-known portals.
const (
	// MDSPortal is the metadata server's request portal.
	MDSPortal portals.Index = 50
	// OSTPortalBase is the first OST's request portal on a storage node;
	// co-located OSTs are spaced by OSTPortalStride.
	OSTPortalBase portals.Index = 52
	// OSTPortalStride separates co-located OSTs.
	OSTPortalStride = 2
)

// Errors reported by the file system.
var (
	ErrExists   = errors.New("pfs: file exists")
	ErrNotFound = errors.New("pfs: no such file")
)

// Calibration constants of the Lustre baseline (DESIGN.md §7).
const (
	// stripeUnit is the bytes per stripe chunk of a new file.
	stripeUnit int64 = 1 << 20
	// mdsOpCost is the metadata service time per namespace op: ~770
	// creates/s, Figure 10b.
	mdsOpCost = 1300 * time.Microsecond
	// mdsThreads is the MDS request concurrency (creates still serialize on
	// the namespace lock, so throughput stays ~1/mdsOpCost).
	mdsThreads = 4
	// revokeCost is the extent-lock holder-switch callback cost.
	revokeCost = 1500 * time.Microsecond
	// lockOpCost is the lock bookkeeping per covered request.
	lockOpCost = 20 * time.Microsecond
)

// Layout describes a file's striping: which OSTs hold it and the object ID
// each OST uses. Object IDs are derived from the inode so OSTs can
// lazily instantiate backing objects (Lustre's precreated-object pool plays
// the same role: creates don't touch OSTs synchronously).
type Layout struct {
	Inode      uint64
	Size       int64 // known size at open (grows with writes)
	StripeUnit int64
	OSTs       []storage.Target // node and request portal of each stripe's OST
}

// ObjectID returns the backing object ID for stripe index i.
func (l Layout) ObjectID(i int) osd.ObjectID {
	return osd.ObjectID(l.Inode<<16 | uint64(i))
}

// striped returns the layout as the stripe planner sees it: stripe index i
// is object ObjectID(i) on OSTs[i], in units of StripeUnit. The baseline
// maps bytes to objects exactly as LWFS's client library does, so Figure 9's
// gap comes from the MDS and the extent locks alone.
func (l Layout) striped() stripe.Layout {
	s := stripe.Layout{Unit: l.StripeUnit, Objs: make([]storage.ObjRef, len(l.OSTs))}
	for i, t := range l.OSTs {
		s.Objs[i] = storage.ObjRef{Node: t.Node, Port: t.Port, ID: l.ObjectID(i)}
	}
	return s
}
