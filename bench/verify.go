package main

import (
	"bytes"
	"fmt"
	"io"

	"lwfs/internal/sim"
	"lwfs/internal/stdfs"
	"lwfs/internal/trace"
)

const verifyExtents = 64 // extents re-read per repetition (fewer only if the run wrote fewer)

// extent is one write of the trace whose bytes are still the file's content
// when the replay ends: no later write overlaps it and the file is not
// removed.
type extent struct {
	Path        string
	Off, Length int64
	Seed        uint64 // 0: synthetic bulk data, reads back as zeros
}

func finalExtents(phases []*trace.Trace) []extent {
	var writes []extent
	removed := map[string]bool{}
	for _, tr := range phases {
		for _, ev := range tr.Events {
			switch ev.Op {
			case trace.OpWrite:
				keep := writes[:0]
				for _, w := range writes {
					if w.Path != ev.Path || w.Off+w.Length <= ev.Off || ev.Off+ev.Len <= w.Off {
						keep = append(keep, w)
					}
				}
				writes = append(keep, extent{Path: ev.Path, Off: ev.Off, Length: ev.Len, Seed: ev.Seed})
				delete(removed, ev.Path)
			case trace.OpRemove:
				removed[ev.Path] = true
			}
		}
	}
	out := writes[:0]
	for _, w := range writes {
		if !removed[w.Path] && w.Length > 0 {
			out = append(out, w)
		}
	}
	return out
}

// verify re-reads seeded extents through stdfs.File.ReadAt on a fresh
// process and compares them with what the trace says was written. It runs
// after the measured run, in a kernel run of its own. It returns how many
// extents it checked and how many did not match.
func (r *replayRun) verify() (checked, bad int, err error) {
	exts := finalExtents(r.phases)
	if len(exts) == 0 {
		return 0, 0, fmt.Errorf("verify: trace %s leaves no extent to check", r.spec.Trace)
	}
	// Seeded extents carry real bytes; a trace with none (seismic is all
	// synthetic) still gets its lengths and zero fill checked.
	var pool []extent
	for _, e := range exts {
		if e.Seed != 0 {
			pool = append(pool, e)
		}
	}
	if len(pool) == 0 {
		pool = exts
	}

	type pick struct {
		clone int
		ext   extent
	}
	rng := sim.NewRand(r.par.Seed ^ 0x5eed)
	n := verifyExtents
	if total := len(pool) * r.clones; total < n {
		n = total
	}
	seen := map[[2]int]bool{}
	var picks []pick
	for len(picks) < n {
		k := [2]int{rng.Intn(r.clones), rng.Intn(len(pool))}
		if seen[k] {
			continue
		}
		seen[k] = true
		picks = append(picks, pick{clone: k[0], ext: pool[k[1]]})
	}
	if r.par.Corrupt {
		// The fault injector flips the first seeded write of worker 0's
		// first clone; make sure the sample covers clone 0.
		for _, e := range pool {
			picks = append(picks, pick{clone: 0, ext: e})
		}
	}

	var verr error
	r.cl.Spawn("bench-verify", func(p *sim.Proc) {
		x := stdfs.New(p, r.mounts[0])
		for _, pk := range picks {
			name := fmt.Sprintf("r%d%s", pk.clone, pk.ext.Path)
			f, err := x.OpenFile(name)
			if err != nil {
				verr = fmt.Errorf("verify: open %s: %w", name, err)
				return
			}
			got := make([]byte, pk.ext.Length)
			_, rerr := f.ReadAt(got, pk.ext.Off)
			f.Close() //nolint:errcheck // read-only handle, nothing to flush
			checked++
			want := trace.DataFor(pk.ext.Seed, pk.ext.Length)
			if want == nil {
				want = make([]byte, pk.ext.Length)
			}
			if (rerr != nil && rerr != io.EOF) || !bytes.Equal(got, want) {
				bad++
			}
		}
	})
	if err := r.cl.Run(); err != nil {
		return checked, bad, err
	}
	return checked, bad, verr
}
