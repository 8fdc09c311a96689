package lwfs

import (
	"time"

	"lwfs/internal/authn"
	"lwfs/internal/authz"
	"lwfs/internal/burst"
	"lwfs/internal/checkpoint"
	"lwfs/internal/cluster"
	"lwfs/internal/core"
	"lwfs/internal/naming"
	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/txn"
)

// Core simulation types.
type (
	// Proc is a simulated process; all blocking client calls take one.
	Proc = sim.Proc
	// Time is a virtual-time instant.
	Time = sim.Time
	// Payload is message/object data: real bytes or a synthetic size.
	Payload = netsim.Payload
)

// System-building types.
type (
	// Spec describes a cluster (node counts, NICs, disks, calibration).
	Spec = cluster.Spec
	// Cluster is a built simulated machine.
	Cluster = cluster.Cluster
	// Deployment is a running LWFS-core on a cluster.
	Deployment = cluster.LWFS
	// BaselinePFS is a running Lustre-like baseline on a cluster.
	BaselinePFS = cluster.PFS
)

// Client-side types.
type (
	// Client is the LWFS client library for one application process.
	Client = core.Client
	// CapSet is a container's capability set.
	CapSet = core.CapSet
	// ProcAddr addresses a client process for capability scatter.
	ProcAddr = core.ProcAddr
	// ObjRef names an object: storage server plus object ID.
	ObjRef = storage.ObjRef
	// Target names a storage server.
	Target = storage.Target
	// Credential is proof of authentication (paper §3.1.2).
	Credential = authn.Credential
	// Capability is proof of authorization for one op on one container.
	Capability = authz.Capability
	// ContainerID names a container, the unit of access control.
	ContainerID = authz.ContainerID
	// Op is a container operation a capability can authorize.
	Op = authz.Op
	// Entry is a naming-service entry.
	Entry = naming.Entry
	// Txn is a distributed transaction handle.
	Txn = txn.Txn
	// Stat is object metadata.
	Stat = osd.Stat
	// FilterFunc is a server-side filter for active-storage scans (§6
	// remote processing): it folds object chunks into an accumulator.
	FilterFunc = storage.FilterFunc
	// BurstConfig tunes the burst staging tier (Spec.Burst).
	BurstConfig = burst.Config
	// BurstTarget names a burst-buffer server (cluster.LWFS.BurstTargets).
	BurstTarget = burst.Target
	// BurstClient stages writes through a burst buffer directly.
	BurstClient = burst.Client
)

// Container operations.
const (
	OpCreate = authz.OpCreate
	OpRead   = authz.OpRead
	OpWrite  = authz.OpWrite
	OpRemove = authz.OpRemove
	OpList   = authz.OpList
)

// AllOps lists every operation.
var AllOps = authz.AllOps

// Lock modes for the lock service (§3.4).
const (
	Shared    = txn.Shared
	Exclusive = txn.Exclusive
)

// DevCluster returns the paper's §4 development-cluster spec: 1 admin
// node, 8 storage nodes × 2 servers, 31 compute nodes, Myrinet-class NICs.
func DevCluster() Spec { return cluster.DevCluster() }

// RedStorm returns a spec with the paper's Table 2 Red Storm parameters.
func RedStorm() Spec { return cluster.RedStorm() }

// NewCluster builds the simulated machine for a spec.
func NewCluster(spec Spec) *Cluster { return cluster.New(spec) }

// NewObjRef builds an object reference from serialized integer fields
// (applications that persist references in their own metadata objects
// deserialize with this).
func NewObjRef(node int, port int, id uint64) ObjRef {
	return ObjRef{Node: netsim.NodeID(node), Port: portals.Index(port), ID: osd.ObjectID(id)}
}

// Bytes wraps real bytes in a payload (tests, examples; contents round-trip
// through the simulated network and disks).
func Bytes(b []byte) Payload { return netsim.BytesPayload(b) }

// Synthetic describes size bytes with no backing memory (benchmarks move
// terabytes of virtual data).
func Synthetic(size int64) Payload { return netsim.SyntheticPayload(size) }

// CheckpointConfig parameterizes a §4 checkpoint run.
type CheckpointConfig = checkpoint.Config

// CheckpointResult is a checkpoint run outcome (per-phase maxima, MB/s).
type CheckpointResult = checkpoint.Result

// CheckpointLWFS runs the Figure 8 object-per-process checkpoint on a
// fresh cluster built from spec. It honours cfg.TotalRanks: the ranks
// beyond cfg.Procs run as calibrated shadow load and the result covers the
// whole job.
func CheckpointLWFS(spec Spec, cfg CheckpointConfig) (CheckpointResult, error) {
	return checkpoint.RunLWFS(spec, cfg)
}

// CheckpointFilePerProcess runs the baseline-PFS file-per-process variant.
func CheckpointFilePerProcess(spec Spec, cfg CheckpointConfig) (CheckpointResult, error) {
	return checkpoint.RunPFSFilePerProcess(spec, cfg)
}

// CheckpointSharedFile runs the baseline-PFS shared-file variant.
func CheckpointSharedFile(spec Spec, cfg CheckpointConfig) (CheckpointResult, error) {
	return checkpoint.RunPFSShared(spec, cfg)
}

// CheckpointManifest describes a restorable checkpoint dataset.
type CheckpointManifest = checkpoint.Manifest

// RestoreCheckpoint resolves a checkpoint by name and verifies every
// rank's state object — the §4 restart path.
func RestoreCheckpoint(p *Proc, c *Client, caps CapSet, path string) (CheckpointManifest, error) {
	return checkpoint.Restore(p, c, caps, path)
}

// MB is a mebibyte (the paper's throughput unit).
const MB = int64(1) << 20

// GB is a gibibyte.
const GB = int64(1) << 30

// Millisecond re-exports for spec tweaking without importing time in
// trivial examples.
const Millisecond = time.Millisecond
