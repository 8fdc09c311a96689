package burst

import (
	"time"

	"lwfs/internal/sim"
	"lwfs/internal/storage"
)

// The drain scheduler. Staged extents are not handed to the drain workers
// raw: they are grouped by destination storage server, and a worker claims a
// whole destination's backlog at once. The batch writes each extent as it
// was staged and issues a single sync against the destination — so a burst
// of n per-rank extents bound for one server costs one flush barrier, not n.
// Worker parallelism is preserved across destinations: with k servers
// holding backlog, up to k workers drain concurrently.

// drainQueue holds pending extents grouped by destination target, in
// deterministic arrival order (FIFO over targets, FIFO within a target).
type drainQueue struct {
	byTarget map[storage.Target][]extent
	order    []storage.Target // targets with pending extents, arrival order
}

func newDrainQueue() *drainQueue {
	return &drainQueue{byTarget: make(map[storage.Target][]extent)}
}

func (q *drainQueue) add(e extent) {
	t := storage.TargetOf(e.ref)
	if len(q.byTarget[t]) == 0 {
		q.order = append(q.order, t)
	}
	q.byTarget[t] = append(q.byTarget[t], e)
}

// take removes and returns the backlog of the oldest destination with
// pending work (len(batch) == 0 when the queue is empty).
func (q *drainQueue) take() (storage.Target, []extent) {
	for len(q.order) > 0 {
		t := q.order[0]
		q.order = q.order[1:]
		if batch := q.byTarget[t]; len(batch) > 0 {
			delete(q.byTarget, t)
			return t, batch
		}
	}
	return storage.Target{}, nil
}

// clear discards all pending work (crash: the memory backing it is gone).
func (q *drainQueue) clear() {
	q.byTarget = make(map[storage.Target][]extent)
	q.order = nil
}

// enqueue hands one staged extent to the drain scheduler and wakes a worker
// (one token per extent; workers reconcile tokens against batch sizes).
func (s *Server) enqueue(e extent) {
	s.dq.add(e)
	s.drainBacklog.Add(1)
	s.drainq.Send(struct{}{})
}

// drainYieldPoll is how often a yielding drain worker re-checks whether the
// foreground pass-through traffic has cleared.
const drainYieldPoll = 200 * time.Microsecond

// yieldToForeground pauses a drain worker while a synchronous pass-through
// relay is in flight — the fix for the foreground/background inversion: a
// full staging window used to degrade new writes to pass-through while the
// background drains kept the storage device busy, so exactly when clients
// were most exposed to storage latency they also had the most competition.
// The pause is naturally bounded: it holds only while a client is actively
// blocked mid-relay, and each relay's completion frees staging capacity.
// Config.NoDrainYield restores the old behavior (ablation baseline).
func (s *Server) yieldToForeground(p *sim.Proc) {
	if s.cfg.NoDrainYield || s.fgActive.Value() == 0 {
		return
	}
	s.drainYields.Inc()
	for s.fgActive.Value() > 0 {
		p.Sleep(drainYieldPoll)
	}
}

// drainWorker claims whole-destination batches and streams them to the
// backing store. Each worker has at most one storage RPC in flight, so
// DrainWorkers bounds the tier's drain concurrency; DrainBW paces the batch
// to model a throttled drain link.
func (s *Server) drainWorker(p *sim.Proc) {
	for {
		s.drainq.Recv(p)
		tgt, batch := s.dq.take()
		if len(batch) == 0 {
			continue // another worker's batch covered this token's extent
		}
		s.drainBacklog.Add(-int64(len(batch)))
		// The batch spans len(batch) tokens but only one Recv: consume the
		// surplus so token count keeps matching pending extents. (The sim is
		// cooperative and nothing blocks between take and these TryRecvs, so
		// the counts cannot race.)
		for i := 1; i < len(batch); i++ {
			s.drainq.TryRecv()
		}
		s.drainBatch(p, tgt, batch)
	}
}

// drainBatch writes one destination's backlog and syncs once.
// Completion bookkeeping is epoch-fenced per extent: a worker that
// was mid-batch when the buffer crashed must not touch the new incarnation's
// maps or journal — the replay re-queued those extents under the new epoch
// and another worker owns them now.
func (s *Server) drainBatch(p *sim.Proc, tgt storage.Target, batch []extent) {
	s.yieldToForeground(p)
	if s.cfg.DrainBW > 0 {
		var total int64
		for _, e := range batch {
			total += e.payload.Size
		}
		p.Sleep(sim.Rate(total, s.cfg.DrainBW))
	}
	var done, failed []extent
	for _, e := range batch {
		s.yieldToForeground(p)
		if _, err := s.sc.Write(p, e.ref, e.cap, e.off, e.payload); err != nil {
			failed = append(failed, e)
			continue
		}
		done = append(done, e)
	}
	if len(done) > 0 {
		s.drainSyncs.Inc()
		if err := s.sc.Sync(p, tgt, done[0].cap); err != nil {
			failed = append(failed, done...)
			done = nil
		}
	}
	for _, e := range failed {
		if e.epoch != s.epoch {
			continue // staged by a dead incarnation: not ours to account for
		}
		// The extent is dropped, not retried: its staging room comes back.
		s.stageAvail.Add(e.payload.Size)
		s.failed[e.ref] = true
		s.pending[e.ref]--
		if s.jdev != nil && e.seq != 0 {
			s.release(p, e.epoch)
		}
	}
	for _, e := range done {
		if e.epoch != s.epoch {
			continue // crashed mid-drain: the replayed copy owns this record
		}
		s.stageAvail.Add(e.payload.Size)
		s.drainedBytes.Add(e.payload.Size)
		s.drainLat.Observe(float64(p.Now().Sub(e.stagedAt)) / float64(time.Millisecond))
		s.pending[e.ref]--
		if s.jdev != nil && e.seq != 0 {
			s.journalDrained(p, e.seq)
		}
	}
}
