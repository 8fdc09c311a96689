package main

import (
	"fmt"
	"sort"
	"time"
)

// params select one repetition of a workload.
type params struct {
	Seed   int64
	Traced bool
	// Tiny shrinks the workload to a fraction of a second for the
	// self-tests; the committed numbers are all at full size.
	Tiny bool
	// Corrupt (self-test only) flips one byte of one seeded extent on its
	// way into the mount, so the read-back verifier must fail.
	Corrupt bool
}

// rep is the outcome of one repetition: one set-up, one measured run, one
// output check. A repetition is a process of its own: a cluster's service
// daemons stay parked (and keep its memory reachable) for as long as their
// process lives, so repetitions sharing a process would each start on top of
// the previous ones' heaps, and Host.PeakRSSMB would be the largest of them.
type rep struct {
	SetupS float64
	Host   hostCost
	// Sim holds the virtual-time results. They are bit-identical for a
	// seed; the runner fails the run if two repetitions disagree.
	Sim map[string]float64
	// Layer holds the per-layer values a traced repetition observed
	// (sources R and S).
	Layer map[string]float64
	// Attempted and Failed count operations: replayed ops, ranks, sweep
	// points, plus every output check made.
	Attempted, Failed int
	Notes             []string
	Spans             []span `json:"-"` // written to the span file by the process that recorded them
}

// repFunc runs one repetition of a workload: in a fresh process (childRep)
// or, for the self-tests, in this one (localRep).
type repFunc func(w workload, par params) (rep, error)

func localRep(w workload, par params) (rep, error) {
	return w.Run(par)
}

type workload struct {
	Name string
	Why  string // one line; BENCHMARK.json carries the same text
	Run  func(params) (rep, error)
}

var workloads = []workload{
	{Name: "paper_figs", Why: whyPaperFigs, Run: runPaperFigs},
	{Name: "ckpt_redstorm", Why: whyCkptRedStorm, Run: runCkptRedStorm},
	{Name: "replay_jacobi", Why: whyReplayJacobi, Run: replayJacobi.run},
	{Name: "replay_seismic", Why: whyReplaySeismic, Run: replaySeismic.run},
	{Name: "replay_climate_degraded", Why: whyReplayClimate, Run: replayClimate.run},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is what one invocation reports: the last line of standard output
// in the driver's shape, and one line of a -json log.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Reps      int                `json:"reps"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Notes     []string           `json:"notes,omitempty"`
}

const (
	minReps  = 3 // untraced repetitions per run, whatever -seconds says
	minPairs = 2 // (untraced, traced) pairs per traced run
)

// runUntraced repeats the workload, tracing off, until the time budget is
// spent, and reports every end-to-end metric: host metrics as medians over
// the repetitions, virtual ones from the first (all must agree).
func runUntraced(run repFunc, w workload, seed int64, seconds float64, tiny bool) (result, error) {
	res := result{Workload: w.Name, Seed: seed, Correct: true, Metrics: map[string]float64{}}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var reps []rep
	for len(reps) < minReps || time.Now().Before(deadline) {
		r, err := run(w, params{Seed: seed, Tiny: tiny})
		if err != nil {
			return res, fmt.Errorf("%s: repetition %d: %w", w.Name, len(reps), err)
		}
		reps = append(reps, r)
	}
	res.Reps = len(reps)
	fold(&res, reps)

	var setup, wall, alloc, rss []float64
	for _, r := range reps {
		setup = append(setup, r.SetupS)
		wall = append(wall, r.Host.WallS)
		alloc = append(alloc, float64(r.Host.AllocBytes)/1e9)
		rss = append(rss, r.Host.PeakRSSMB)
	}
	res.Notes = append(res.Notes, fmt.Sprintf("wall_s of each repetition: %.4g", wall))
	res.Metrics["setup_s"] = median(setup)
	res.Metrics["wall_s"] = median(wall)
	res.Metrics["alloc_gb"] = median(alloc)
	res.Metrics["peak_rss_mb"] = median(rss)
	for name, v := range reps[0].Sim {
		res.Metrics[name] = v
	}
	res.Metrics["ops_failed_frac"] = float64(res.Failed) / float64(res.Attempted)
	for _, d := range endToEnd {
		if v, ok := res.Metrics[d.Name]; !ok || v == 0 {
			return res, fmt.Errorf("%s: end-to-end metric %s missing or zero", w.Name, d.Name)
		}
	}
	return res, nil
}

// runTraced alternates untraced and traced repetitions until the budget is
// spent, then runs the probes and the ladder, and reports every per-layer
// metric. The traced/untraced wall ratio is the tracing overhead.
func runTraced(run repFunc, w workload, seed int64, seconds float64, tiny bool) (result, error) {
	res := result{Workload: w.Name, Seed: seed, Traced: true, Correct: true, Metrics: map[string]float64{}}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var plain, traced []rep
	for len(traced) < minPairs || time.Now().Before(deadline) {
		for _, tr := range []bool{false, true} {
			r, err := run(w, params{Seed: seed, Traced: tr, Tiny: tiny})
			if err != nil {
				return res, fmt.Errorf("%s: repetition %d (traced=%v): %w", w.Name, len(traced), tr, err)
			}
			if tr {
				traced = append(traced, r)
			} else {
				plain = append(plain, r)
			}
		}
	}
	res.Reps = len(plain) + len(traced)
	fold(&res, append(append([]rep(nil), plain...), traced...))

	// Per-layer values of the traced repetitions: exact ones must agree,
	// host-clocked ones are reported as medians.
	byName := map[string][]float64{}
	for _, r := range traced {
		for name, v := range r.Layer {
			byName[name] = append(byName[name], v)
		}
	}
	for name, vs := range byName {
		d, ok := defOf(name)
		if !ok {
			return res, fmt.Errorf("%s: traced run reported unknown metric %s", w.Name, name)
		}
		if d.Exact {
			for _, v := range vs[1:] {
				if v != vs[0] {
					res.Correct = false
					res.Failed++
					res.Notes = append(res.Notes, fmt.Sprintf("%s differs between traced repetitions: %v", name, vs))
					break
				}
			}
			res.Metrics[name] = vs[0]
		} else {
			res.Metrics[name] = median(vs)
		}
	}
	for _, name := range []string{"sim_op_ms_p50", "sim_op_ms_p99", "sim_durable_s", "paper_shape_err"} {
		res.Metrics[name] = traced[0].Sim[name]
	}

	var pw, tw []float64
	for _, r := range plain {
		pw = append(pw, r.Host.WallS)
	}
	for _, r := range traced {
		tw = append(tw, r.Host.WallS)
	}
	res.Metrics["bench.trace_overhead_frac"] = median(tw)/median(pw) - 1

	probes, err := runProbes(tiny)
	if err != nil {
		return res, err
	}
	for name, v := range probes {
		res.Metrics[name] = v
	}
	lad, err := runLadder()
	if err != nil {
		return res, err
	}
	for name, v := range lad.named() {
		res.Metrics[name] = v
	}

	res.Metrics["ops_failed_frac"] = float64(res.Failed) / float64(res.Attempted)
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.Name]; !ok {
			res.Metrics[d.Name] = 0 // not observable on this workload
		}
	}
	return res, nil
}

// fold sums the operation counts and checks that every repetition produced
// the same virtual-time results.
func fold(res *result, reps []rep) {
	for i, r := range reps {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		if i == 0 {
			res.Notes = append(res.Notes, r.Notes...)
			continue
		}
		for _, name := range sortedKeys(reps[0].Sim) {
			if r.Sim[name] != reps[0].Sim[name] {
				res.Failed++
				res.Notes = append(res.Notes, fmt.Sprintf("virtual-time result %s differs between repetitions 0 and %d: %v vs %v",
					name, i, reps[0].Sim[name], r.Sim[name]))
			}
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
