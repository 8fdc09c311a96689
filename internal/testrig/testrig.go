// Package testrig assembles small simulated systems for the service
// packages' tests: a kernel, a network, portals endpoints, and the
// authentication/authorization stack on node 0. It is test-only plumbing —
// production topologies are built by internal/cluster.
package testrig

import (
	"fmt"
	"testing"
	"time"

	"lwfs/internal/authn"
	"lwfs/internal/authz"
	"lwfs/internal/metrics"
	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
)

// MB is a mebibyte.
const MB = 1 << 20

// Rig is a booted miniature system. Node 0 is the admin node running the
// authentication and authorization services; the remaining nodes are free
// for the test to use (clients, storage servers).
type Rig struct {
	K     *sim.Kernel
	Net   *netsim.Network
	Eps   []*portals.Endpoint
	Realm *authn.Realm
	Authn *authn.Service
	Authz *authz.Service
}

// Users pre-registered in the realm, with secret "secret-<name>".
var Users = []authn.Principal{"alice", "bob", "carol"}

// Secret returns the registered secret for a test user.
func Secret(u authn.Principal) string { return "secret-" + string(u) }

// New boots a rig with the given number of nodes (node 0 is admin; at least
// 2 are required). All NICs run at 230 MB/s with 10µs latency, matching the
// dev-cluster calibration.
func New(nodes int) *Rig {
	if nodes < 2 {
		panic("testrig: need at least 2 nodes")
	}
	k := sim.NewKernel()
	net := netsim.New(k, 10*time.Microsecond)
	r := &Rig{K: k, Net: net, Realm: authn.NewRealm()}
	for _, u := range Users {
		r.Realm.Register(u, Secret(u))
	}
	cfg := netsim.Config{EgressBW: 230 * MB, IngressBW: 230 * MB, SWOverhead: time.Microsecond}
	for i := 0; i < nodes; i++ {
		name := fmt.Sprintf("node%d", i)
		if i == 0 {
			name = "admin"
		}
		nd := net.AddNode(name, cfg)
		r.Eps = append(r.Eps, portals.NewEndpoint(net, nd))
	}
	r.Authn = authn.Start(r.Eps[0], r.Realm)
	ac := authn.NewClient(portals.NewCaller(r.Eps[0]), r.Eps[0].Node())
	r.Authz = authz.Start(r.Eps[0], ac)
	return r
}

// Metric reads the registry the way tests assert on counters: the current
// value of the named instrument, or the sum over every instrument a `*`
// pattern matches ("rpc.osd1.served", "storage.*.cap_cache.misses"). The
// registry is the one observability surface; services keep no accessors
// beside it.
func Metric(reg *metrics.Registry, pattern string) int64 {
	return int64(reg.Sum(pattern))
}

// Metric reads the rig's registry; see the package-level Metric.
func (r *Rig) Metric(pattern string) int64 { return Metric(r.Net.Metrics(), pattern) }

// Caller returns a fresh RPC caller on node i.
func (r *Rig) Caller(i int) *portals.Caller { return portals.NewCaller(r.Eps[i]) }

// AuthnClient returns an authentication client sending from node i.
func (r *Rig) AuthnClient(i int) *authn.Client {
	return authn.NewClient(r.Caller(i), r.Eps[0].Node())
}

// AuthzClient returns an authorization client sending from node i.
func (r *Rig) AuthzClient(i int) *authz.Client {
	return authz.NewClient(r.Caller(i), r.Eps[0].Node())
}

// StorageServer boots a storage server on rig node i, backed by its own
// fresh device with default disk parameters, at the default RPC portal.
// Service tests that sit above storage (burst staging, checkpoint pieces)
// use it instead of re-deriving the device/authz wiring.
func (r *Rig) StorageServer(i int, cfg storage.Config) *storage.Server {
	dev := osd.NewDevice(r.K, fmt.Sprintf("osd%d", i), osd.DefaultDiskParams())
	return storage.Start(r.Eps[i], dev, r.AuthzClient(i), storage.DefaultRPCPort, cfg)
}

// Go spawns a simulated process.
func (r *Rig) Go(name string, fn func(p *sim.Proc)) { r.K.Spawn(name, fn) }

// Run drains the simulation and fails the test on kernel error.
func (r *Rig) Run(t *testing.T) {
	t.Helper()
	if err := r.K.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
}
