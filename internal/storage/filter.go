package storage

import (
	"errors"
	"fmt"
	"time"

	"lwfs/internal/authz"
	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/sim"
)

// This file implements the paper's §6 "remote processing (e.g., remote
// filtering)" direction — active storage in the Acharya/Riedel sense (the
// paper's references [2] and [31]): the client ships the *name* of a
// deployed filter to the storage server, the server streams the object
// through it next to the disk, and only the (small) result crosses the
// network. A 512 MB scan that would occupy a client NIC for seconds comes
// back as a handful of bytes.
//
// Filters are deployed server-side code, invoked by name — exactly the
// open-architecture posture of §3: the core provides the mechanism (run
// registered code under a read capability, charge CPU honestly); what the
// filters compute is application policy.

// FilterFunc folds one chunk of object data into an accumulator. Stored
// seeded runs arrive as their bytes. For synthetic payloads (benchmarks)
// chunk.Data is nil and only sizes matter; filters must handle both. The
// returned accumulator is passed to the next call; the final accumulator is
// the reply.
type FilterFunc func(acc []byte, chunk netsim.Payload) []byte

// ErrNoFilter is reported when a request names an unregistered filter.
var ErrNoFilter = errors.New("storage: no such filter")

// filterReq asks the server to run a named filter over an object range.
type filterReq struct {
	Cap  authz.Capability
	ID   osd.ObjectID
	Off  int64
	Len  int64
	Name string
	Args string
}

// RegisterFilter deploys a filter on this server under the given name.
// cpuBytesPerSec models the server CPU's streaming rate through the filter
// (0 uses the config default).
func (s *Server) RegisterFilter(name string, fn FilterFunc) {
	if s.filters == nil {
		s.filters = make(map[string]FilterFunc)
	}
	s.filters[name] = fn
}

// FilterCPUBps is the default server CPU streaming rate for filters.
const FilterCPUBps = 400e6

// runFilter streams [off, off+len) of the object from disk through the
// filter, charging disk and CPU time, and returns the final accumulator.
func (s *Server) runFilter(p *sim.Proc, r filterReq) (interface{}, error) {
	fn, ok := s.filters[r.Name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoFilter, r.Name)
	}
	var acc []byte
	if r.Args != "" {
		acc = []byte(r.Args) // seed the accumulator with caller arguments
	}
	_, err := s.readChunks(p, r.ID, r.Off, r.Len, func(_ int64, chunk netsim.Payload) {
		// Charge the CPU for the scan; overlaps with the next disk read
		// only across requests (service threads), matching a simple
		// read-then-compute loop.
		p.Sleep(time.Duration(float64(chunk.Size) / FilterCPUBps * 1e9))
		acc = fn(acc, netsim.Payload{Size: chunk.Size, Data: chunk.Bytes()}) // a seeded run as its bytes
	})
	if err != nil {
		return nil, err
	}
	return acc, nil
}

// Filter runs the named server-side filter over [off, off+length) of the
// referenced object and returns the accumulator. Requires an OpRead
// capability (a filter is a read that happens to summarize). maxResult
// bounds the reply's wire size.
func (c *Client) Filter(p *sim.Proc, ref ObjRef, cap authz.Capability, off, length int64, name, args string, maxResult int64) ([]byte, error) {
	v, err := c.ep.Call(p, ref.Node, ref.Port, filterReq{
		Cap: cap, ID: ref.ID, Off: off, Len: length, Name: name, Args: args,
	}, reqWireSize+int64(len(name)+len(args)), maxResult)
	if err != nil {
		return nil, err
	}
	if v == nil {
		return nil, nil
	}
	return v.([]byte), nil
}
