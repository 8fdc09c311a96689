// Package cluster assembles simulated MPP systems in the partitioned
// architecture of the paper (§2.1, Figure 1): compute nodes running
// lightweight client code, storage/I-O nodes running heavier services, and
// an admin/service node hosting the metadata-ish services (authentication,
// authorization, naming, lock service — and, for the baseline PFS, the
// MDS).
//
// It also carries the machine presets the paper tabulates: the §4 I/O
// development cluster the experiments ran on, the Table 1 machine roster,
// and the Table 2 Red Storm parameters used for network calibration and the
// petaflop projection.
package cluster

import (
	"fmt"
	"time"

	"lwfs/internal/authn"
	"lwfs/internal/authz"
	"lwfs/internal/burst"
	"lwfs/internal/core"
	"lwfs/internal/metrics"
	"lwfs/internal/naming"
	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/pfs"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/txn"
)

// Spec describes a cluster to build.
type Spec struct {
	ComputeNodes   int
	StorageNodes   int
	ServersPerNode int // storage servers (OSTs) per storage node

	// BurstNodes adds a burst-buffer staging tier between the compute and
	// storage partitions: nodes whose servers absorb write bursts into
	// memory and drain them to the storage servers asynchronously (0 = no
	// tier; the pre-burst topology).
	BurstNodes int
	// BurstJournal, when non-nil, gives each burst buffer a write-ahead
	// journal on a buffer-local device of these parameters (e.g.
	// osd.BurstJournalParams, NVRAM/SSD-class), so staged extents survive
	// a buffer crash and Restart resumes draining them (burst.Start with a
	// journal device). Nil keeps the memory-only tier of the earlier
	// experiments, bit-identical.
	BurstJournal *osd.DiskParams

	NICBandwidth float64       // bytes/s, per node, each direction
	Latency      time.Duration // fabric latency
	SWOverhead   time.Duration // per-message receive processing

	Disk    osd.DiskParams
	Storage storage.Config
	Burst   burst.Config // burst-tier tuning (used when BurstNodes > 0)
}

const mb = 1 << 20

// DevCluster reproduces the paper's §4 I/O development cluster: 40 2-way
// Opteron nodes with Myrinet — 1 metadata/authorization node, 8 storage
// nodes hosting two storage servers each (backed by shares of an LSI
// MetaStor fibre-channel RAID), 31 compute nodes.
func DevCluster() Spec {
	return Spec{
		ComputeNodes:   31,
		StorageNodes:   8,
		ServersPerNode: 2,
		NICBandwidth:   230 * mb, // Myrinet-2000 era
		Latency:        10 * time.Microsecond,
		SWOverhead:     2 * time.Microsecond,
		Disk:           osd.DefaultDiskParams(),
		Storage:        storage.DefaultConfig(),
		Burst:          burst.DefaultConfig(),
	}
}

// WithServers returns the spec resized to the given total storage-server
// count, holding ServersPerNode fixed (the Figure 9/10 sweeps use 2, 4, 8
// and 16 servers over 1–8 storage nodes). It panics on a count
// CheckServers refuses.
func (s Spec) WithServers(total int) Spec {
	if err := s.CheckServers(total); err != nil {
		panic(err)
	}
	if total < s.ServersPerNode {
		s.ServersPerNode = total
		s.StorageNodes = 1
		return s
	}
	s.StorageNodes = total / s.ServersPerNode
	return s
}

// CheckServers reports whether WithServers can lay out total storage
// servers: fewer than ServersPerNode share one node, and more fill whole
// nodes — so the dev cluster hosts 1 server or a multiple of 2.
func (s Spec) CheckServers(total int) error {
	if total < 1 || (total > s.ServersPerNode && total%s.ServersPerNode != 0) {
		return fmt.Errorf("cluster: %d storage servers: want at least 1, and above %d a multiple of %d (servers per node)",
			total, s.ServersPerNode, s.ServersPerNode)
	}
	return nil
}

// RedStorm returns a spec with the Table 2 Red Storm parameters: 2 µs MPI
// latency, 6 GB/s bidirectional links, 400 MB/s I/O-node RAID bandwidth.
// Node counts follow Table 1 (10,368 compute, 256 I/O). Build at this scale
// only for sampled experiments — the full machine is ~10k processes.
func RedStorm() Spec {
	disk := osd.DefaultDiskParams()
	disk.BandwidthBps = 400 * mb
	return Spec{
		ComputeNodes:   10368,
		StorageNodes:   256,
		ServersPerNode: 1,
		NICBandwidth:   6000 * mb,
		Latency:        2 * time.Microsecond,
		SWOverhead:     time.Microsecond,
		Disk:           disk,
		Storage:        storage.DefaultConfig(),
		Burst:          burst.DefaultConfig(),
	}
}

// Machine is a Table 1 row: the compute/I-O node balance of DOE MPPs.
type Machine struct {
	Name         string
	Year         string
	ComputeNodes int
	IONodes      int
}

// Ratio returns the compute:I/O node ratio, rounded to the nearest integer
// (the paper's Table 1 prints 58:1 etc.).
func (m Machine) Ratio() int {
	return (m.ComputeNodes + m.IONodes/2) / m.IONodes
}

// Table1 is the paper's Table 1.
var Table1 = []Machine{
	{Name: "SNL Intel Paragon", Year: "1990s", ComputeNodes: 1840, IONodes: 32},
	{Name: "ASCI Red", Year: "1990s", ComputeNodes: 4510, IONodes: 73},
	{Name: "Cray Red Storm", Year: "2004", ComputeNodes: 10368, IONodes: 256},
	{Name: "BlueGene/L", Year: "2005", ComputeNodes: 65536, IONodes: 1024},
}

// Cluster is a built system: nodes, endpoints and (after Deploy*) services.
type Cluster struct {
	Spec Spec
	K    *sim.Kernel
	Net  *netsim.Network

	Admin    *portals.Endpoint
	StorageN []*portals.Endpoint // one per storage node
	BurstN   []*portals.Endpoint // one per burst-buffer node
	ComputeN []*portals.Endpoint // one per compute node

	Realm *authn.Realm
}

// Metrics returns the cluster's instrument registry. Every service deployed
// on the cluster registers its counters, gauges and histograms here under
// hierarchical names ("rpc.osd0.0.served", "burst.bb1.drain.backlog");
// snapshots are stamped with the kernel's virtual time. This is the one
// observability surface: services keep no counter accessors beside it.
func (c *Cluster) Metrics() *metrics.Registry { return c.Net.Metrics() }

// New builds the nodes and network for a spec (no services yet).
func New(spec Spec) *Cluster {
	k := sim.NewKernel()
	net := netsim.New(k, spec.Latency)
	c := &Cluster{Spec: spec, K: k, Net: net, Realm: authn.NewRealm()}
	cfg := netsim.Config{
		EgressBW:   spec.NICBandwidth,
		IngressBW:  spec.NICBandwidth,
		SWOverhead: spec.SWOverhead,
	}
	c.Admin = portals.NewEndpoint(net, net.AddNode("admin", cfg))
	for i := 0; i < spec.StorageNodes; i++ {
		nd := net.AddNode(fmt.Sprintf("io%d", i), cfg)
		c.StorageN = append(c.StorageN, portals.NewEndpoint(net, nd))
	}
	for i := 0; i < spec.BurstNodes; i++ {
		nd := net.AddNode(fmt.Sprintf("bb%d", i), cfg)
		c.BurstN = append(c.BurstN, portals.NewEndpoint(net, nd))
	}
	for i := 0; i < spec.ComputeNodes; i++ {
		nd := net.AddNode(fmt.Sprintf("cn%d", i), cfg)
		c.ComputeN = append(c.ComputeN, portals.NewEndpoint(net, nd))
	}
	return c
}

// LWFS is a deployed LWFS-core: services plus the System descriptor clients
// connect with.
type LWFS struct {
	Authn  *authn.Service
	Authz  *authz.Service
	Naming *naming.Service
	// The naming service's journal device and transaction participant,
	// which tests count and aim faults at.
	NamingDev *osd.Device
	NamingTxn *txn.Participant
	Locks     *txn.LockServer
	Servers   []*storage.Server
	Burst     []*burst.Server // staging tier, one per burst node (may be empty)
	Sys       core.System
}

// BurstTargets returns the staging tier's RPC targets in node order, nil
// when the cluster has no burst tier (callers then write to storage
// directly).
func (l *LWFS) BurstTargets() []burst.Target {
	if len(l.Burst) == 0 {
		return nil
	}
	ts := make([]burst.Target, len(l.Burst))
	for i, b := range l.Burst {
		ts[i] = b.Tgt()
	}
	return ts
}

// DeployLWFS starts the LWFS-core on the cluster: authentication,
// authorization, naming and the lock service on the admin node; one storage
// server per (storage node × ServersPerNode) slot, each with its own disk
// share.
func (c *Cluster) DeployLWFS() *LWFS {
	l := &LWFS{}
	l.Authn = authn.Start(c.Admin, c.Realm)
	adminAC := authn.NewClient(portals.NewCaller(c.Admin), c.Admin.Node())
	l.Authz = authz.Start(c.Admin, adminAC)

	l.NamingDev = osd.NewDevice(c.K, "naming-dev", c.Spec.Disk)
	l.NamingTxn = txn.NewParticipant(c.Admin, l.NamingDev, naming.TxnPortal)
	l.Naming = naming.Start(c.Admin, adminAC, l.NamingTxn)
	l.Locks = txn.StartLockServer(c.Admin)

	sys := core.System{Admin: c.Admin.Node()}
	for ni, ep := range c.StorageN {
		for si := 0; si < c.Spec.ServersPerNode; si++ {
			devName := fmt.Sprintf("osd%d.%d", ni, si)
			dev := osd.NewDevice(c.K, devName, c.Spec.Disk)
			port := storage.DefaultRPCPort + portals.Index(si*storage.PortalStride)
			srv := storage.Start(ep, dev, authz.NewClient(portals.NewCaller(ep), c.Admin.Node()), port, c.Spec.Storage)
			l.Servers = append(l.Servers, srv)
			sys.Storage = append(sys.Storage, storage.Target{Node: ep.Node(), Port: port})
		}
	}
	for i, ep := range c.BurstN {
		az := authz.NewClient(portals.NewCaller(ep), c.Admin.Node())
		var jdev *osd.Device
		if c.Spec.BurstJournal != nil {
			jdev = osd.NewDevice(c.K, fmt.Sprintf("bbj%d", i), *c.Spec.BurstJournal)
		}
		l.Burst = append(l.Burst, burst.Start(ep, az, c.Spec.Burst, jdev))
	}
	l.Sys = sys
	return l
}

// PFS is a deployed baseline parallel file system (internal/pfs).
type PFS struct {
	MDS  *pfs.MDS
	OSTs []*pfs.OST
}

// DeployPFS starts the Lustre-like baseline on the cluster: the MDS on the
// admin node, one OST per (storage node × ServersPerNode) slot, each with
// its own disk share — the same hardware budget DeployLWFS uses, so Figure
// 9/10 comparisons isolate architecture, not hardware.
func (c *Cluster) DeployPFS() *PFS {
	f := &PFS{}
	var targets []storage.Target
	for ni, ep := range c.StorageN {
		for si := 0; si < c.Spec.ServersPerNode; si++ {
			dev := osd.NewDevice(c.K, fmt.Sprintf("ost%d.%d", ni, si), c.Spec.Disk)
			port := pfs.OSTPortalBase + portals.Index(si*pfs.OSTPortalStride)
			ost := pfs.StartOST(ep, dev, port, c.Spec.Storage)
			f.OSTs = append(f.OSTs, ost)
			targets = append(targets, ost.Target())
		}
	}
	f.MDS = pfs.StartMDS(c.Admin, targets)
	return f
}

// NewPFSClient creates a baseline-PFS client for a process on compute node
// idx (mod ComputeNodes).
func (c *Cluster) NewPFSClient(f *PFS, idx int) *pfs.Client {
	ep := c.ComputeN[idx%len(c.ComputeN)]
	return pfs.NewClient(portals.NewCaller(ep), c.Admin.Node())
}

// NewClient creates a core client for a process placed on compute node
// idx (mod ComputeNodes — processes beyond the node count share nodes,
// like the paper's 64-process runs on 31 nodes).
func (c *Cluster) NewClient(l *LWFS, idx int) *core.Client {
	ep := c.ComputeN[idx%len(c.ComputeN)]
	return core.NewClient(ep, l.Sys)
}

// StorageNodeIDs returns the storage nodes' network IDs — the scope handed
// to netsim fault rules when only the data path should be lossy.
func (c *Cluster) StorageNodeIDs() []netsim.NodeID {
	ids := make([]netsim.NodeID, len(c.StorageN))
	for i, ep := range c.StorageN {
		ids[i] = ep.Node()
	}
	return ids
}

// RegisterUser adds a principal to the realm.
func (c *Cluster) RegisterUser(user authn.Principal, secret string) {
	c.Realm.Register(user, secret)
}

// Spawn starts a simulated process on the cluster's kernel.
func (c *Cluster) Spawn(name string, fn func(p *sim.Proc)) { c.K.Spawn(name, fn) }

// Run drains the simulation.
func (c *Cluster) Run() error { return c.K.Run(sim.MaxTime) }

// Close ends the simulation (sim.Kernel.Shutdown): every service daemon and
// client process still parked is retired, so the cluster holds no goroutine
// and everything it built — object payloads included — is collectable once
// the caller drops it. Registry snapshots, results and device state read
// before or after Close are unaffected; only Run and Spawn stop working.
// Whoever calls New calls Close.
func (c *Cluster) Close() { c.K.Shutdown() }
