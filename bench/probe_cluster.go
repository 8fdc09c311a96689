package main

import (
	"time"

	"lwfs/internal/cluster"
)

// probeCluster: cluster.build_ns_per_node is cluster.New plus DeployLWFS of
// the dev cluster (1 admin, 8 storage and 31 compute nodes), per node.
func probeCluster(bool) (map[string]float64, error) {
	spec := cluster.DevCluster()
	nodes := 1 + spec.StorageNodes + spec.ComputeNodes
	build, err := medianNs(nodes, func() (time.Duration, error) {
		start := time.Now()
		cluster.New(spec).DeployLWFS()
		return time.Since(start), nil
	})
	if err != nil {
		return nil, err
	}
	return map[string]float64{"cluster.build_ns_per_node": build}, nil
}
