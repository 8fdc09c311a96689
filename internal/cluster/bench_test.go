package cluster_test

import (
	"testing"

	"lwfs/internal/cluster"
)

// BenchmarkBuild times building and deploying a cluster and closing it
// unrun: the per-point set-up cost every sweep pays, most of it instrument
// registration. Red Storm is the sampled machine-size shape, 1 000 compute
// nodes and 16 burst nodes.
func BenchmarkBuild(b *testing.B) {
	redStorm := cluster.RedStorm()
	redStorm.ComputeNodes = 1000
	redStorm.BurstNodes = 16
	for _, bc := range []struct {
		name  string
		spec  cluster.Spec
		build func(cl *cluster.Cluster)
	}{
		{"dev-lwfs", cluster.DevCluster(), func(cl *cluster.Cluster) { cl.DeployLWFS() }},
		{"dev-pfs", cluster.DevCluster(), func(cl *cluster.Cluster) { cl.DeployPFS() }},
		{"redstorm-1000-burst16", redStorm, func(cl *cluster.Cluster) { cl.DeployLWFS() }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cl := cluster.New(bc.spec)
				bc.build(cl)
				cl.Close()
			}
		})
	}
}
