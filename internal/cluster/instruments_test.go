package cluster_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lwfs/internal/cluster"
	"lwfs/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite testdata/instruments.txt")

// inventoryBuilds are the deployments whose instruments the inventory
// pins: the dev cluster with the LWFS core and a client, with the Lustre
// baseline and a client, and with LWFS over a two-node burst tier.
var inventoryBuilds = []struct {
	name  string
	build func() *cluster.Cluster
}{
	{"lwfs", func() *cluster.Cluster {
		cl := cluster.New(cluster.DevCluster())
		cl.NewClient(cl.DeployLWFS(), 0)
		return cl
	}},
	{"pfs", func() *cluster.Cluster {
		cl := cluster.New(cluster.DevCluster())
		cl.NewPFSClient(cl.DeployPFS(), 0)
		return cl
	}},
	{"burst", func() *cluster.Cluster {
		spec := cluster.DevCluster()
		spec.BurstNodes = 2
		cl := cluster.New(spec)
		cl.NewClient(cl.DeployLWFS(), 0)
		return cl
	}},
}

// inventory lists a snapshot's instruments as sorted "name kind" lines.
func inventory(s metrics.Snapshot) []string {
	lines := make([]string, len(s.Values))
	for i, v := range s.Values {
		lines[i] = v.Name + " " + v.Kind.String()
	}
	return lines
}

// TestInstrumentInventory pins every instrument a freshly built cluster
// registers, by name and kind, so a change to how the registry stores
// instruments cannot lose, rename or retype one. A deliberate change to a
// service's instruments reruns it with -update and shows the diff.
func TestInstrumentInventory(t *testing.T) {
	var got strings.Builder
	for _, b := range inventoryBuilds {
		cl := b.build()
		lines := inventory(cl.Metrics().Snapshot())
		cl.Close()
		fmt.Fprintf(&got, "# %s: %d instruments\n", b.name, len(lines))
		for _, l := range lines {
			fmt.Fprintln(&got, l)
		}
	}
	path := filepath.Join("testdata", "instruments.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("instrument inventory drifted at line %d:\n got  %q\n want %q\n(rerun with -update after a deliberate change)", i+1, g, w)
			}
		}
	}
}

// Registry.Sum matches names in place and keeps the names it builds, so a
// warm Sum over a cluster's registry makes the same number of allocations
// however many instruments the cluster has.
func TestSumAllocationsDoNotGrowWithInstruments(t *testing.T) {
	allocs := func(servers int) (float64, int) {
		cl := cluster.New(cluster.DevCluster().WithServers(servers))
		defer cl.Close()
		cl.DeployLWFS()
		reg := cl.Metrics()
		reg.Sum("rpc.*.served") // builds the names once
		return testing.AllocsPerRun(20, func() { reg.Sum("rpc.*.served") }), len(reg.Snapshot().Values)
	}
	small, nSmall := allocs(2)
	large, nLarge := allocs(16)
	if nLarge <= nSmall {
		t.Fatalf("16 servers register %d instruments, 2 servers %d: want more", nLarge, nSmall)
	}
	if small != large {
		t.Errorf("Sum allocates %.1f times over %d instruments and %.1f over %d, want the same", small, nSmall, large, nLarge)
	}
}
