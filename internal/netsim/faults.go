package netsim

import (
	"time"

	"lwfs/internal/sim"
)

// This file is the network's fault-injection layer: a declarative set of
// fault rules consulted for every message at send time. Rules compose —
// partitioning A|B and then A|C leaves both cuts in force — and each rule is
// a handle that can be healed independently, so chaos schedules can script
// overlapping failure windows without coordinating closures.
//
// Drop decisions draw from a seeded sim.Rand in kernel event order, so a
// lossy run is exactly as deterministic as a healthy one: same seed, same
// drops, same virtual-time results.

// FaultSpec declares one fault rule.
//
// Scope: with both groups empty the rule covers every message; with only
// GroupA set it covers messages to or from GroupA (a degraded or isolated
// set of nodes); with both set it covers messages crossing the A|B cut in
// either direction (a partition).
//
// Window: the rule is live from InjectFault until Heal. A timed window
// [start, end) is two kernel events, k.At(start, inject) and
// k.At(end, f.Heal), scheduled before anything else at those instants.
//
// Effect: each matching message is dropped with probability DropProb
// (1 means always — a clean partition) and, if it survives, incurs
// ExtraLatency on top of the fabric latency (per-link degradation).
type FaultSpec struct {
	GroupA, GroupB []NodeID
	DropProb       float64
	ExtraLatency   time.Duration
}

// Fault is an installed fault rule; Heal removes it.
type Fault struct {
	net     *Network
	spec    FaultSpec
	inA     map[NodeID]bool
	inB     map[NodeID]bool
	healed  bool
	dropped int64
}

// Dropped reports messages this rule removed.
func (f *Fault) Dropped() int64 { return f.dropped }

// Healed reports whether the rule has been removed.
func (f *Fault) Healed() bool { return f.healed }

// Heal removes the rule; subsequent messages no longer match it. Healing an
// already-healed rule is a no-op.
func (f *Fault) Heal() {
	if f.healed {
		return
	}
	f.healed = true
	for i, x := range f.net.rules {
		if x == f {
			f.net.rules = append(f.net.rules[:i], f.net.rules[i+1:]...)
			return
		}
	}
}

func (f *Fault) matches(m Message) bool {
	switch {
	case len(f.inA) == 0 && len(f.inB) == 0:
		return true
	case len(f.inB) == 0:
		return f.inA[m.From] || f.inA[m.To]
	default:
		return (f.inA[m.From] && f.inB[m.To]) || (f.inB[m.From] && f.inA[m.To])
	}
}

func nodeSet(ids []NodeID) map[NodeID]bool {
	if len(ids) == 0 {
		return nil
	}
	s := make(map[NodeID]bool, len(ids))
	for _, id := range ids {
		s[id] = true
	}
	return s
}

// InjectFault installs a fault rule and returns its handle. Rules stack:
// a message is dropped if any live rule drops it, and surviving messages
// accumulate every matching rule's ExtraLatency.
func (n *Network) InjectFault(spec FaultSpec) *Fault {
	f := &Fault{net: n, spec: spec, inA: nodeSet(spec.GroupA), inB: nodeSet(spec.GroupB)}
	n.rules = append(n.rules, f)
	return f
}

// Partition drops every message between the two node groups (both
// directions) until the returned handle's Heal — or Network.Heal — restores
// connectivity. Successive partitions compose.
func (n *Network) Partition(groupA, groupB []NodeID) *Fault {
	return n.InjectFault(FaultSpec{GroupA: groupA, GroupB: groupB, DropProb: 1})
}

// Degrade makes every link touching the group lossy and slow: messages to or
// from the group are dropped with probability dropProb and otherwise delayed
// by extra. Heal the returned handle to restore the links.
func (n *Network) Degrade(group []NodeID, dropProb float64, extra time.Duration) *Fault {
	return n.InjectFault(FaultSpec{GroupA: group, DropProb: dropProb, ExtraLatency: extra})
}

// Heal removes every fault rule and the legacy SetFault closure.
func (n *Network) Heal() {
	for _, f := range n.rules {
		f.healed = true
	}
	n.rules = nil
	n.fault = nil
}

// SetChaosSeed seeds the generator behind probabilistic drops. Runs that
// never install a fractional DropProb never consume randomness; runs that do
// should set the seed explicitly (the default is seed 0).
func (n *Network) SetChaosSeed(seed int64) { n.rng = sim.NewRand(seed) }

// applyFaults runs m through the legacy closure and every live rule,
// reporting whether to drop it and how much extra latency it accrues.
func (n *Network) applyFaults(m Message) (drop bool, extra time.Duration) {
	if n.fault != nil && n.fault(m) {
		return true, 0
	}
	for _, f := range n.rules {
		if !f.matches(m) {
			continue
		}
		if f.spec.DropProb >= 1 {
			f.dropped++
			return true, 0
		}
		if f.spec.DropProb > 0 {
			if n.rng == nil {
				n.rng = sim.NewRand(0)
			}
			if n.rng.Float64() < f.spec.DropProb {
				f.dropped++
				return true, 0
			}
		}
		extra += f.spec.ExtraLatency
	}
	return false, extra
}
