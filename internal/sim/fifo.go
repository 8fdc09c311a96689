package sim

import (
	"fmt"
	"time"
)

// FIFOServer models a work-conserving single-server FIFO queue with
// deterministic service: each job occupies the server for a caller-computed
// service time (e.g. size/bandwidth for a link, seek+size/bandwidth for a
// disk). Jobs are served in arrival order; arrival order at equal instants
// follows submission order.
//
// Because service completion times can be computed analytically
// (start = max(now, previous completion)), a FIFOServer needs no process of
// its own — completions are plain kernel events. This keeps per-message cost
// low enough to push tens of millions of simulated transfers through the
// kernel.
type FIFOServer struct {
	k        *Kernel
	name     string
	nextFree Time

	busyAccum time.Duration
}

// NewFIFOServer creates a FIFO server attached to k.
func NewFIFOServer(k *Kernel, name string) *FIFOServer {
	return &FIFOServer{k: k, name: name}
}

// Schedule enqueues a job with the given service time and calls fn (in
// kernel context) when it completes. It returns the completion instant.
func (s *FIFOServer) Schedule(service time.Duration, fn func()) Time {
	if service < 0 {
		panic(fmt.Sprintf("sim: fifo %q: negative service time %v", s.name, service))
	}
	start := s.k.now
	if s.nextFree > start {
		start = s.nextFree
	}
	finish := start.Add(service)
	s.nextFree = finish
	s.busyAccum += service
	if fn != nil {
		s.k.At(finish, fn)
	}
	return finish
}

// Wait enqueues a job and blocks p until it completes.
func (s *FIFOServer) Wait(p *Proc, service time.Duration) {
	finish := s.Schedule(service, nil)
	p.unparkAt(finish)
	p.park()
}

// BusyTime reports the total service time scheduled so far.
func (s *FIFOServer) BusyTime() time.Duration { return s.busyAccum }

// Rate converts a size in bytes and a bandwidth in bytes/second into a
// service duration. It is the standard helper for links and disks.
func Rate(size int64, bytesPerSec float64) time.Duration {
	if bytesPerSec <= 0 {
		panic("sim: non-positive bandwidth")
	}
	return time.Duration(float64(size) / bytesPerSec * 1e9)
}
