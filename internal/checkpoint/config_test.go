package checkpoint_test

import (
	"errors"
	"io/fs"
	"testing"
	"time"

	"lwfs/internal/checkpoint"
	"lwfs/internal/cluster"
)

// TestBadConfigsAreRefused: a configuration no run can have is refused with
// fs.ErrInvalid before anything runs — not a panic deep in a rank, not an
// all-zero Result, not a negative byte count, not a sampled mode quietly
// ignored.
func TestBadConfigsAreRefused(t *testing.T) {
	good := checkpoint.Config{Procs: 2, BytesPerProc: 4096, Seed: 1}
	with := func(edit func(*checkpoint.Config)) checkpoint.Config {
		cfg := good
		edit(&cfg)
		return cfg
	}
	bad := map[string]checkpoint.Config{
		"Procs 0":                with(func(c *checkpoint.Config) { c.Procs = 0 }),
		"Procs -1":               with(func(c *checkpoint.Config) { c.Procs = -1 }),
		"BytesPerProc -4096":     with(func(c *checkpoint.Config) { c.BytesPerProc = -4096 }),
		"JitterMax -1ms":         with(func(c *checkpoint.Config) { c.JitterMax = -time.Millisecond }),
		"TotalRanks -1":          with(func(c *checkpoint.Config) { c.TotalRanks = -1 }),
		"TotalRanks below Procs": with(func(c *checkpoint.Config) { c.TotalRanks = 1 }),
	}
	runs := map[string]func(cluster.Spec, checkpoint.Config) (checkpoint.Result, error){
		"lwfs":   checkpoint.RunLWFS,
		"fpp":    checkpoint.RunPFSFilePerProcess,
		"shared": checkpoint.RunPFSShared,
	}
	for impl, run := range runs {
		for name, cfg := range bad {
			if _, err := run(testSpec(2), cfg); !errors.Is(err, fs.ErrInvalid) {
				t.Errorf("%s with %s: %v, want fs.ErrInvalid", impl, name, err)
			}
		}
	}
	// Sampled mode models the LWFS dump only.
	sampled := with(func(c *checkpoint.Config) { c.TotalRanks = 64 })
	for _, impl := range []string{"fpp", "shared"} {
		if _, err := runs[impl](testSpec(2), sampled); !errors.Is(err, fs.ErrInvalid) {
			t.Errorf("%s with TotalRanks 64: %v, want fs.ErrInvalid", impl, err)
		}
	}

	creates := map[string]func(cluster.Spec, int, int, int64) (checkpoint.CreateResult, error){
		"lwfs": checkpoint.RunCreateOnlyLWFS,
		"pfs":  checkpoint.RunCreateOnlyPFS,
	}
	for impl, run := range creates {
		for _, c := range []struct{ procs, ops int }{{0, 4}, {-1, 4}, {2, 0}, {2, -1}} {
			if _, err := run(testSpec(2), c.procs, c.ops, 1); !errors.Is(err, fs.ErrInvalid) {
				t.Errorf("create-only %s with %d procs x %d ops: %v, want fs.ErrInvalid", impl, c.procs, c.ops, err)
			}
		}
	}
}
