package core

import (
	"errors"
	"fmt"
	"iter"
	"slices"

	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/storage"
)

// The failover policy, written once for every library above the core. Which
// errors fall over is portals.FailStop; this file is the other two thirds:
// the order candidates are tried in, and when one is given up on.

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
// succeeded. A candidate whose try fails fail-stop (portals.FailStop) is
// reported to failed (nil = nobody to tell) and never offered again; any
// other error stops the walk and is returned untouched, with nothing tried
// after it. Running out of candidates first returns an error wrapping
// ErrRanOut.
func Walk[T comparable](cands []T, start, k int, excluded, avoided func(T) bool, try func(T) error, failed func(T)) error {
	if k <= 0 {
		return nil
	}
	var dead []T // a slice: a handful at most, and the healthy walk allocates nothing
	var lastErr error
	skip := func(c T) bool { return slices.Contains(dead, c) || (excluded != nil && excluded(c)) }
	for _, c := range Candidates(cands, start, skip, avoided) {
		err := try(c)
		switch {
		case err == nil:
			if k--; k == 0 {
				return nil
			}
		case portals.FailStop(err):
			dead = append(dead, c)
			lastErr = err
			if failed != nil {
				failed(c)
			}
		default:
			return err
		}
	}
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
	err = Walk(refs, 0, 1, nil, nil,
		func(ref storage.ObjRef) (rerr error) {
			pl, rerr = read(ref)
			return rerr
		},
		func(storage.ObjRef) { skipped++ })
	return pl, skipped, err
}
