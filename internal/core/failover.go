package core

import (
	"errors"
	"fmt"
	"iter"
	"slices"

	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/txn"
)

// The failover policy, written once for every library above the core. Which
// errors fall over is portals.FailStop; this file is the rest: the order
// candidates are tried in, when one is given up on, and when a transaction
// that placed objects by walking lets the ones given up on go (Placement).

// ErrRanOut is wrapped by Walk's error when the candidates ran out before
// enough of them succeeded — as opposed to a hard error, which Walk returns
// untouched. The last fail-stop error seen, if any, is wrapped beside it.
var ErrRanOut = errors.New("core: ran out of failover candidates")

// Candidates yields cands in failover order, each with its index in cands.
// Each pass visits the rotation cands[start], cands[start+1], … modulo
// len(cands) — any start, of either sign, is a rotation: placement passes
// hashes and sums that may have wrapped. The first pass offers every
// candidate neither excluded nor avoided, the second every candidate not
// excluded — so an avoided one (a server already holding a copy, one the
// breaker holds Down) is still offered, but after the preferred ones. Both
// predicates (nil = never) are consulted as the walk reaches a candidate,
// not up front: the consumer's used/failed sets change under it. A candidate
// taken in the first pass and not excluded since is offered again in the
// second — that is how a pool too small for distinct placement doubles up.
func Candidates[T any](cands []T, start int, excluded, avoided func(T) bool) iter.Seq2[int, T] {
	return func(yield func(int, T) bool) {
		n := len(cands)
		if n == 0 {
			return
		}
		first := mod(start, n)
		for k := range 2 * n {
			i := (first + k) % n
			c := cands[i]
			if excluded != nil && excluded(c) || k < n && avoided != nil && avoided(c) {
				continue
			}
			if !yield(i, c) {
				return
			}
		}
	}
}

// Walk tries candidates in Candidates order from start until k of them
// succeeded. A candidate in *dead is never offered; one whose try fails
// fail-stop (portals.FailStop) joins *dead (nil dead: a list of the walk's
// own), and any other error stops the walk and is returned untouched, with
// nothing tried after it. Running out of candidates first returns an error
// wrapping ErrRanOut.
func Walk[T comparable](cands []T, start, k int, excluded, avoided func(T) bool, try func(T) error, dead *[]T) error {
	if k <= 0 {
		return nil
	}
	var own []T // a slice: a handful at most, and the healthy walk allocates nothing
	if dead == nil {
		dead = &own
	}
	var lastErr error
	skip := func(c T) bool { return slices.Contains(*dead, c) || (excluded != nil && excluded(c)) }
	for _, c := range Candidates(cands, start, skip, avoided) {
		err := try(c)
		switch {
		case err == nil:
			if k--; k == 0 {
				return nil
			}
		case portals.FailStop(err):
			*dead = append(*dead, c)
			lastErr = err
		default:
			return err
		}
	}
	return ranOut(lastErr)
}

// ranOut is Walk's error when the candidates ran out, out of line so its
// formatting is not in the frame under every try.
//
//go:noinline
func ranOut(lastErr error) error {
	if lastErr == nil {
		return ErrRanOut
	}
	return fmt.Errorf("%w: %w", ErrRanOut, lastErr)
}

// ReadMirror reads a mirrored record from the first reachable copy: refs are
// tried in order and only a fail-stop error moves on to the next — every
// committed mirror holds the same bytes, so a dead server's copy is
// replaceable, while a hard error says something about the record itself.
// skipped is how many unreachable mirrors preceded the one that answered.
func ReadMirror(refs []storage.ObjRef, read func(storage.ObjRef) (netsim.Payload, error)) (pl netsim.Payload, skipped int, err error) {
	var dead []storage.ObjRef
	err = Walk(refs, 0, 1, nil, nil,
		func(ref storage.ObjRef) (rerr error) {
			pl, rerr = read(ref)
			return rerr
		}, &dead)
	return pl, len(dead), err
}

// Placement is one transaction's object creation by failover walks: Tx, the
// objects it keeps once it commits (Kept, filled in by the caller), and the
// targets its walks gave up on, which none of them offers again. It is the
// policy's last piece: when a target given up on leaves the transaction. Not
// at the failure — another walk may already have kept an object there, which
// a delisted server deletes by presumed abort on recovery — but when the
// transaction is decided (Commit, Abort): then every dead target that holds
// none of Kept is delisted, so its vote cannot veto the commit and its
// provisional objects resolve by presumed abort. A dead target that holds a
// kept object stays enlisted and is prepared first, never the decision site
// while another participant is enlisted: its failed prepare aborts the
// transaction loudly instead of committing a ref the abort removes.
type Placement struct {
	Tx   *txn.Txn
	Kept []storage.ObjRef
	dead []storage.Target // in the order the walks gave up on them (concurrent walks may repeat one)
}

// Walk is core.Walk over the placement: dead targets are excluded beside
// excluded, and a target that fails fail-stop joins them. Inlined into
// another package, its generic call would be taken to leak try.
//
//go:noinline
func (pl *Placement) Walk(cands []storage.Target, start, k int, excluded, avoided func(storage.Target) bool, try func(storage.Target) error) error {
	return Walk(cands, start, k, excluded, avoided, try, &pl.dead)
}

// Dead reports whether a walk of the placement gave up on t.
func (pl *Placement) Dead(t storage.Target) bool { return slices.Contains(pl.dead, t) }

// Commit delists the dead targets that hold none of Kept, then commits Tx.
func (pl *Placement) Commit(p *sim.Proc) error {
	pl.delist()
	return pl.Tx.Commit(p)
}

// Abort delists the dead targets that hold none of Kept, then aborts Tx.
func (pl *Placement) Abort(p *sim.Proc) error {
	pl.delist()
	return pl.Tx.Abort(p)
}

func (pl *Placement) delist() {
	for _, t := range pl.dead {
		if !storage.Holds(pl.Kept, t) {
			pl.Tx.Delist(storage.TxnEndpointOf(t))
		} else {
			pl.Tx.PrepareFirst(storage.TxnEndpointOf(t))
		}
	}
}
