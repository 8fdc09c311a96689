package checkpoint

import (
	"errors"
	"fmt"

	"lwfs/internal/core"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/stripe"
)

// RedundantDump selects redundant per-rank dumps through the stripe engine:
// each rank's state becomes a striped layout with replica or parity
// protection instead of a single object, so a storage-server crash mid-dump
// is ridden out with zero data loss — the dead server's copies are simply
// abandoned and the committed manifest (v2, carrying the layouts) restores
// through degraded reads. Scheme Raid0 stripes without protection: any
// server loss then aborts the checkpoint detectably, which is the control
// arm redundancy is measured against.
type RedundantDump struct {
	Scheme stripe.Scheme
	Width  int // data columns per rank (>= 1)
	Copies int // replica copies (Scheme Replica only; 0 = 2)

	// MetaCopies is how many mirrors of the v2 manifest the commit writes
	// (0 = 2, 1 = the legacy single manifest object). Every mirror that
	// lands is recorded in the naming entry, and Restore walks them on
	// timeout — so losing the manifest-hosting server after the commit no
	// longer makes an otherwise-recoverable checkpoint unrestorable.
	MetaCopies int
}

func (r *RedundantDump) metaCopies() int {
	if r.MetaCopies == 0 {
		return 2
	}
	if r.MetaCopies < 1 {
		return 1
	}
	return r.MetaCopies
}

func (r *RedundantDump) copies() int {
	if r.Scheme == stripe.Replica && r.Copies == 0 {
		return 2
	}
	return r.Copies
}

// redundantUnit is a redundant dump's stripe unit.
const redundantUnit = 256 << 10

// objects is the per-rank object count the scheme needs.
func (r *RedundantDump) objects() int {
	switch r.Scheme {
	case stripe.Replica:
		return r.Width * r.copies()
	case stripe.Parity:
		return r.Width + 1
	}
	return r.Width
}

func (r *RedundantDump) validate() error {
	if r.Width < 1 {
		return fmt.Errorf("checkpoint: redundant dump needs width >= 1, have %d", r.Width)
	}
	if r.Scheme == stripe.Replica && r.copies() < 2 {
		return fmt.Errorf("checkpoint: replica dump needs >= 2 copies, have %d", r.Copies)
	}
	return nil
}

// dumpRedundant is one rank's redundant CHECKPOINT body: create the scheme's
// objects on distinct healthy servers (transactionally), write the state as
// one full-stripe redundant write, and sync the survivors. Unlike the
// single-object path, failures here never panic and never fail over to a
// fresh dump: a timed-out server is marked failed and *tolerated* — the
// redundancy absorbs it — and the commit tail decides whether every rank's
// layout is still recoverable. A hard (non-timeout) error is returned for
// the tail to abort on.
func dumpRedundant(p *sim.Proc, c *core.Client, caps core.CapSet, h *txnHandle, rank, placement int, cfg Config) dumpOut {
	r := cfg.Redundant
	var out dumpOut
	t0 := p.Now()

	// Placement: walk the server rotation from the rank's preferred slot,
	// skipping servers already marked failed. Distinct servers come first
	// (failure independence is the point); if the healthy pool is too small
	// the walk's second pass allows reuse — a degraded placement beats an
	// aborted checkpoint, and the tail's recoverability check still guards
	// the commit.
	need := r.objects()
	used := make(map[storage.Target]bool)
	objs := make([]storage.ObjRef, 0, need)
	err := core.Walk(core.Rotate(c.Servers(), rank+placement), need,
		h.down,
		func(tgt storage.Target) bool { return used[tgt] },
		func(tgt storage.Target) error {
			ref, err := c.CreateObjectTxn(p, tgt, caps, h.tx)
			if err == nil {
				used[tgt] = true
				objs = append(objs, ref)
			}
			return err
		},
		h.markDown)
	if errors.Is(err, core.ErrRanOut) {
		out.err = fmt.Errorf("checkpoint: rank %d: %d of %d objects placed before the healthy pool ran out", rank, len(objs), need)
		return out
	}
	if err != nil {
		out.err = fmt.Errorf("checkpoint: rank %d create: %w", rank, err)
		return out
	}
	out.t.Create = p.Now().Sub(t0)

	l := stripe.Layout{Size: cfg.BytesPerProc, Unit: redundantUnit, Scheme: r.Scheme, Copies: r.copies(), Objs: objs}
	if err := l.Validate(); err != nil {
		out.err = err
		return out
	}
	out.l = l
	out.ref = objs[0]

	t1 := p.Now()
	eng := stripe.NewEngine(c, caps, stripe.DefaultWindow)
	_, lost, err := eng.WriteAtTolerant(p, l, 0, payloadFor(rank, cfg))
	for _, lt := range lost {
		h.markDown(lt)
	}
	if err != nil {
		out.err = fmt.Errorf("checkpoint: rank %d dump: %w", rank, err)
		return out
	}
	out.t.Write = p.Now().Sub(t1)

	// Sync whichever targets are still believed healthy, one by one so a
	// server dying in the write-to-sync window is marked and tolerated
	// rather than failing the whole barrier.
	t2 := p.Now()
	for _, tg := range l.Targets() {
		if h.down(tg) {
			continue
		}
		if err := c.Sync(p, tg, caps); err != nil {
			if !portals.FailStop(err) {
				out.err = fmt.Errorf("checkpoint: rank %d sync: %w", rank, err)
				return out
			}
			h.markDown(tg)
		}
	}
	out.t.Sync = p.Now().Sub(t2)
	return out
}

// redundantTail is the redundant-mode commit gate, run by rank 0 after the
// gather: commit only if every rank dumped without a hard error and every
// layout is still recoverable given all observed failures; otherwise roll
// the whole checkpoint back. Either way the failed servers are delisted
// from the transaction — they cannot vote, and in the commit case the
// redundancy has just been shown to survive abandoning their copies. The
// dead servers' stale objects must be treated as fenced: a restarted
// server resolves its provisional creates by presumed abort, so the
// layouts' missing columns are rebuilt (or re-dumped), never re-read.
func redundantTail(p *sim.Proc, c *core.Client, caps core.CapSet, h *txnHandle, layouts []stripe.Layout, dumpErrs []error, placement int, cfg Config, mdT *ProcTimes) (aborted bool) {
	var bad error
	for rank := range layouts {
		if dumpErrs[rank] != nil {
			bad = dumpErrs[rank]
			break
		}
		if !layouts[rank].Recoverable(h.down) {
			bad = fmt.Errorf("checkpoint: rank %d layout unrecoverable after server failures", rank)
			break
		}
	}
	if bad != nil {
		// Dead participants cannot acknowledge the rollback; drop them
		// first so the abort reaches the survivors instead of hanging.
		sealTxn(h, nil)
		if aerr := h.tx.Abort(p); aerr != nil {
			panic(fmt.Sprintf("abort after %v: %v", bad, aerr))
		}
		return true
	}
	// No data object pins its server: the layouts were just shown to survive
	// abandoning every failed server's copies.
	publishManifest(p, c, caps, h, placement, EncodeMetadataV2(layouts, cfg.BytesPerProc), cfg.Redundant.metaCopies(), nil, mdT)
	return false
}
