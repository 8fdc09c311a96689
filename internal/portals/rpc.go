package portals

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"time"

	"lwfs/internal/metrics"
	"lwfs/internal/netsim"
	"lwfs/internal/sim"
)

// This file provides a small request/response convention over portals, used
// by every LWFS and PFS control protocol: the client Puts a small request to
// the service's portal index, carrying a reply token; the service Puts the
// response back to the client's reply portal matched by that token.
//
// Bulk data never rides on RPC — it moves via one-sided Get/Put against the
// memory descriptors named inside request headers (server-directed I/O).

// replyPortal is the reserved portal index where all RPC responses land.
const replyPortal Index = 1022

// rpcRequest is the header of an RPC request message.
type rpcRequest struct {
	Token    uint64
	ReqID    uint64 // nonzero for retryable calls; servers dedup on (From, ReqID)
	From     netsim.NodeID
	Class    uint8  // scheduling class (Caller.SetClass); 0 = foreground
	AckLag   uint32 // ReqID minus the sender's ack watermark (rpcRequest.ack)
	Body     interface{}
	RespSize int64 // wire size the response should occupy (0 => header only)
}

// ack is the sender's ack watermark: every retryable call From made below it
// has returned. It travels as a lag behind ReqID, in the padding after Class,
// so the request, and every wire record carrying one, stays its old size.
func (r *rpcRequest) ack() uint64 { return r.ReqID - uint64(r.AckLag) }

// rpcResponse is the header of an RPC response message. Err travels as an
// error value: message bodies are in-memory values throughout the simulated
// network, so preserving error identity (errors.Is against the service
// packages' sentinel errors) costs nothing and makes the client API honest.
type rpcResponse struct {
	Token uint64
	Body  interface{}
	Err   error
}

// Handler processes one RPC request on a service process. It may block
// (sleep for service time, do disk I/O, issue portals Gets). The returned
// body travels back to the caller.
type Handler func(p *sim.Proc, from netsim.NodeID, req interface{}) (resp interface{}, err error)

// ErrOverload is the explicit shed verdict: an admission-controlled server
// whose queue is full answers immediately with this error instead of letting
// the request age into a timeout. It is NOT a timeout — the server is alive
// — so Call returns it at once, whatever retry policy is armed: backing off
// and trying again is the caller's decision. Only an armed breaker takes
// note, counting a shed toward opening the target's circuit.
var ErrOverload = errors.New("portals: server overloaded, request shed")

// ErrCircuitOpen is returned by a breaker-armed Caller without issuing the
// attempt: the target's circuit is open after consecutive failures. It wraps
// ErrRPCTimeout deliberately — every failover/degraded-read path that treats
// a timeout as "route around this server" handles a fast-failed attempt
// identically, except the caller waited zero time instead of a full timeout.
var ErrCircuitOpen = fmt.Errorf("portals: circuit open (fast-fail): %w", ErrRPCTimeout)

// Delivery is one parsed request in flight between arrival and service —
// what a Dispatcher schedules. From, Class and Body are visible so admission
// policy can classify it; the reply routing stays private to the Server.
type Delivery struct {
	From  netsim.NodeID
	Class uint8
	Body  interface{}

	req   rpcRequest
	valid bool
}

// Dispatcher is a pluggable queue discipline between request arrival and the
// service threads (an admission controller). Submit is called on arrival: it
// either queues the delivery or rejects it with an error (typically
// ErrOverload) which is sent straight back to the caller without consuming a
// service thread. The server wakes one service thread per admitted delivery,
// and that thread calls Next: the dispatcher picks which queued delivery it
// gets (fair-share, priority), and answers with the zero Delivery when the
// queue was cleared in the meantime. Len reports queued deliveries; Clear
// discards them all (server crash) and returns how many were dropped.
type Dispatcher interface {
	Submit(d Delivery) error
	Next(p *sim.Proc) Delivery
	Len() int
	Clear() int
}

// dedupEntry is one retryable request a server has started for a sender: in
// flight until done, then its response, kept for a retransmission until the
// sender's ack watermark passes it. wait is made only by a duplicate that
// finds the original still in flight.
type dedupEntry struct {
	reqID uint64
	done  bool
	body  interface{}
	err   error
	wait  *sim.Future
}

// sender is a server's dedup state for one sender node: the highest ack
// watermark it has seen from the node, and the node's requests at or above
// it (plus any still in flight below it).
type sender struct {
	ack  uint64
	reqs []dedupEntry
}

// find returns the index of the entry for reqID, or -1.
func (sn *sender) find(reqID uint64) int {
	for i := range sn.reqs {
		if sn.reqs[i].reqID == reqID {
			return i
		}
	}
	return -1
}

// acked raises the watermark to ack and drops the completed entries below
// it: their callers have returned and will never retransmit them.
func (sn *sender) acked(ack uint64) {
	if ack <= sn.ack {
		return
	}
	sn.ack = ack
	kept := sn.reqs[:0]
	for _, e := range sn.reqs {
		if !e.done || e.reqID >= ack {
			kept = append(kept, e)
		}
	}
	clear(sn.reqs[len(kept):])
	sn.reqs = kept
}

// finish records the response of the execution of reqID for its
// retransmissions and hands it to the duplicates waiting on it; an entry the
// watermark passed while it ran is dropped instead.
func (sn *sender) finish(reqID uint64, body interface{}, err error) {
	i := sn.find(reqID)
	if w := sn.reqs[i].wait; w != nil {
		w.Complete(body, err)
	}
	if reqID < sn.ack {
		sn.reqs = slices.Delete(sn.reqs, i, i+1)
		return
	}
	sn.reqs[i] = dedupEntry{reqID: reqID, done: true, body: body, err: err}
}

// Server dispatches RPC requests arriving at one portal index to a pool of
// service processes. Threads models the server's internal concurrency: a
// Lustre MDS with one service thread serializes every create; an LWFS
// storage server with several threads overlaps network pulls with disk
// writes across requests.
//
// Service threads start on demand (startWorker): a server that never hears a
// request owns no process and no goroutine, and one that only ever sees k
// overlapping requests owns min(k, threads).
//
// Retried requests (nonzero ReqID) are deduplicated: a duplicate of a
// request still executing waits for the original and returns its response;
// a duplicate of a completed request returns the recorded response without
// re-running the handler. This is what makes client retry safe for
// non-idempotent operations (object create, 2PC prepare). Each such request
// also carries its sender's ack watermark (Caller.Call): the server forgets
// a sender's completed requests below the highest one it has seen, and
// discards a request below it unexecuted, since its caller has returned. So
// the table holds only what the senders' outstanding calls may still
// retransmit.
type Server struct {
	ep      *Endpoint
	pt      Index
	name    string
	q       *sim.Mailbox
	handler Handler

	threads int          // service concurrency: the most workers ever started
	started int          // workers started so far
	work    *sim.Mailbox // where idle workers wait: q itself, or tokens behind disp

	senders map[netsim.NodeID]*sender // made by the first retryable request

	// down models a crashed process: requests are discarded unanswered and
	// replies from handler executions that straddled the crash are
	// suppressed. epoch increments on every SetDown(true) so an execution
	// that began before a crash cannot leak its reply after a restart.
	down  bool
	epoch uint64

	// disp, when set, reorders/limits requests between arrival and
	// service (admission control): work then carries one token per admitted
	// delivery. nil keeps the FIFO mailbox path.
	disp Dispatcher

	// Registered under `rpc.<name>.*` — these count *completed RPC
	// requests*, a different unit from the link-level `net.<node>.*`
	// message counters (one served request typically moves several
	// network messages: request, pull/push data, reply).
	served    *metrics.Counter
	deduped   *metrics.Counter
	discarded *metrics.Counter
	shed      *metrics.Counter
}

// metricName flattens an RPC server name into a registry instance segment:
// "osd0.0/txn" registers under "rpc.osd0.0.txn.*".
func metricName(name string) string { return strings.ReplaceAll(name, "/", ".") }

// Serve attaches an RPC server at (ep, pt) served by up to threads service
// processes. The server registers `rpc.<name>.served|deduped|discarded`
// counters and a `rpc.<name>.queue_depth` gauge in the network's metrics
// registry.
func Serve(ep *Endpoint, pt Index, name string, threads int, handler Handler) *Server {
	if threads <= 0 {
		panic(fmt.Sprintf("portals: server %q: need at least one thread", name))
	}
	k := ep.Kernel()
	scope := ep.Metrics().Scope("rpc").Scope(metricName(name))
	s := &Server{
		ep: ep, pt: pt, name: name,
		q:         sim.NewMailbox(k, name+"/rpcq"),
		handler:   handler,
		threads:   threads,
		served:    scope.Counter("served"),
		deduped:   scope.Counter("deduped"),
		discarded: scope.Counter("discarded"),
		shed:      scope.Counter("shed"),
	}
	scope.GaugeFunc("queue_depth", func() int64 {
		n := int64(s.q.Len())
		if s.disp != nil {
			n += int64(s.disp.Len())
		}
		return n
	})
	s.work = s.q
	s.work.OnBacklog(s.startWorker)
	ep.Attach(pt, 0, ^MatchBits(0), &MD{EQ: s.q})
	return s
}

// startWorker is the thread start rule, for both paths: it runs whenever work
// is queued and no started worker is idle to take it (sim.Mailbox.OnBacklog),
// and starts one more unless all threads already exist — a 1-thread server
// still serializes. Workers never exit, so an idle one is always a waiter on
// work; a busy or just-woken one is not, which is what lets k simultaneous
// requests start k workers.
func (s *Server) startWorker() {
	if s.started == s.threads {
		return
	}
	s.ep.Kernel().SpawnDaemon(s.name+"/worker"+strconv.Itoa(s.started), s.worker)
	s.started++
}

// SetDispatcher installs an admission controller between request arrival and
// the service threads. An intake daemon (started, like the workers, by the
// first arrival) parses requests off the wire mailbox and offers them to
// d.Submit; a rejection (ErrOverload) is answered immediately with the error
// and zero payload — the caller learns "shed" at network latency instead of
// aging into a timeout. Every admitted delivery puts one token on the work
// mailbox; the service thread that takes it pulls a delivery through d.Next,
// in whatever order the dispatcher chooses.
//
// Must be called once, before the simulation runs (servers are configured at
// deploy time); installing a second dispatcher panics.
func (s *Server) SetDispatcher(d Dispatcher) {
	if s.disp != nil {
		panic(fmt.Sprintf("portals: server %q: dispatcher already set", s.name))
	}
	s.disp = d
	s.work = sim.NewMailbox(s.ep.Kernel(), s.name+"/admitted")
	s.work.OnBacklog(s.startWorker)
	s.q.OnBacklog(func() {
		s.q.OnBacklog(nil) // one intake, and from now on it is the receiver
		s.ep.Kernel().SpawnDaemon(s.name+"/intake", s.runIntake)
	})
}

func (s *Server) runIntake(p *sim.Proc) {
	for {
		req, ok := takeRequest(s.q.Recv(p).(*Event))
		if !ok {
			continue
		}
		if s.down {
			s.discarded.Inc()
			continue
		}
		if err := s.disp.Submit(Delivery{From: req.From, Class: req.Class, Body: req.Body, req: req, valid: true}); err != nil {
			s.shedReply(s.epoch, req, err)
			continue
		}
		s.work.Send(struct{}{})
	}
}

// shedReply answers a rejected request with err and no payload. Sheds are
// counted separately from served: the handler never ran.
func (s *Server) shedReply(epoch uint64, req rpcRequest, err error) {
	if s.down || epoch != s.epoch {
		return
	}
	s.shed.Inc()
	s.respond(req, nil, err, 0)
}

// takeRequest copies the request out of the record that carried it and
// releases the record; ok is false for any other Put, which the caller
// drops.
func takeRequest(ev *Event) (req rpcRequest, ok bool) {
	if ev.live().kind == wireRequest {
		req, ok = ev.req, true
	}
	ev.Release()
	return req, ok
}

// respond puts the response to req, occupying size payload bytes, on the wire.
func (s *Server) respond(req rpcRequest, body interface{}, err error, size int64) {
	ev := s.ep.record(replyPortal, MatchBits(req.Token), netsim.SyntheticPayload(size))
	ev.kind, ev.resp = wireResponse, rpcResponse{Token: req.Token, Body: body, Err: err}
	s.ep.send(req.From, ev)
}

// Down reports whether the server is crashed.
func (s *Server) Down() bool { return s.down }

// SetDown crashes (true) or restarts (false) the server. Crashing discards
// queued requests, frees the workers whose duplicates wait on an execution,
// forgets the volatile dedup table, and suppresses replies from handler
// executions already underway; the RPC port itself stays bound,
// modeling a machine that is unreachable at the process level rather than
// the NIC level. Durable state recovery is the owner's job (storage servers
// replay their journal on restart).
func (s *Server) SetDown(down bool) {
	if down && !s.down {
		s.epoch++
		// Wake in a fixed order: each wake schedules a process.
		for _, from := range slices.Sorted(maps.Keys(s.senders)) {
			for _, e := range s.senders[from].reqs {
				if e.wait != nil {
					e.wait.Complete(nil, nil) // the epoch suppresses its reply
				}
			}
		}
		s.senders = nil
		s.discarded.Add(int64(drain(s.q)))
		if s.disp != nil {
			s.discarded.Add(int64(s.disp.Clear()))
			drain(s.work) // tokens of the deliveries just cleared
		}
	}
	s.down = down
}

func (s *Server) reply(epoch uint64, req rpcRequest, body interface{}, err error) {
	if s.down || epoch != s.epoch {
		return // crashed (or crashed+restarted) since this execution began
	}
	s.served.Inc()
	s.respond(req, body, err, req.RespSize)
}

func (s *Server) worker(p *sim.Proc) {
	for {
		var req rpcRequest
		if s.disp != nil {
			s.work.Recv(p)
			del := s.disp.Next(p)
			if !del.valid {
				continue // the token outlived a Clear (SetDown raced a woken worker)
			}
			req = del.req
		} else {
			var ok bool
			if req, ok = takeRequest(s.q.Recv(p).(*Event)); !ok {
				continue
			}
		}
		if s.down {
			s.discarded.Inc()
			continue
		}
		epoch := s.epoch
		if req.ReqID == 0 {
			body, err := s.handler(p, req.From, req.Body)
			s.reply(epoch, req, body, err)
			continue
		}
		sn := s.sender(req.From)
		sn.acked(req.ack())
		if req.ReqID < sn.ack {
			s.discarded.Inc() // a retransmission whose caller has returned
			continue
		}
		if i := sn.find(req.ReqID); i >= 0 {
			// Retry of a request we have seen: read (or wait for) the
			// original execution's result and answer at this reply token.
			s.deduped.Inc()
			e := &sn.reqs[i]
			body, err := e.body, e.err
			if !e.done {
				if e.wait == nil {
					e.wait = sim.NewFuture()
				}
				body, err = e.wait.Wait(p)
			}
			s.reply(epoch, req, body, err)
			continue
		}
		sn.reqs = append(sn.reqs, dedupEntry{reqID: req.ReqID})
		body, err := s.handler(p, req.From, req.Body)
		if epoch == s.epoch { // else a crash forgot sn and woke its waiters
			sn.finish(req.ReqID, body, err)
		}
		s.reply(epoch, req, body, err)
	}
}

// sender returns the dedup state for node from, making it (and the table) on
// first use: a server no retryable request reaches keeps none.
func (s *Server) sender(from netsim.NodeID) *sender {
	sn := s.senders[from]
	if sn == nil {
		if s.senders == nil {
			s.senders = make(map[netsim.NodeID]*sender)
		}
		sn = &sender{}
		s.senders[from] = sn
	}
	return sn
}

// ErrRPCTimeout is returned by CallTimeout when the deadline passes.
var ErrRPCTimeout = errors.New("portals: rpc timeout")

// FailStop is the failover rule's one classifier: it reports whether err is
// the signature of a server that stopped answering — ErrRPCTimeout, or
// ErrCircuitOpen, which wraps it. Only such an error may be routed around
// (next mirror, degraded read, absorbed copy, another placement). Anything a
// live server answered — osd.ErrNoObject (the object was fenced by a
// presumed-abort deletion), a decode failure, a refused capability,
// ErrOverload — is evidence about the data or the request, not about
// reachability, and trying another copy would mask it; those stay hard.
func FailStop(err error) bool { return errors.Is(err, ErrRPCTimeout) }

// Breaker is the client-side circuit breaker consulted by a Caller before
// each attempt. Allow asked false means fast-fail with ErrCircuitOpen instead
// of issuing the attempt; Record feeds every attempt's outcome (nil on
// success) back so the breaker can trip on consecutive timeouts/overloads.
// Keyed by (target, portal) so one sick service on a node does not condemn
// its healthy neighbors.
type Breaker interface {
	Allow(target netsim.NodeID, pt Index) bool
	Record(target netsim.NodeID, pt Index, err error)
}

// Caller issues RPCs from an endpoint. Tokens come from the endpoint's
// shared space, so any number of callers may coexist on one node.
type Caller struct {
	ep    *Endpoint
	retry RetryPolicy
	rng   *sim.Rand

	class   uint8   // stamped on every outgoing request (qos scheduling class)
	breaker Breaker // optional fast-fail gate, consulted per attempt

	// The node-wide `rpc.client.<node>.late_replies|retries` counters,
	// shared by every caller on the node. A late reply is a response that
	// arrived after its attempt timed out: dropped at the reply portal,
	// never delivered to another call. Retries are re-sent attempts (each
	// call's first attempt excluded).
	lateReplies *metrics.Counter
	retries     *metrics.Counter
}

// NewCaller creates a caller on ep.
func NewCaller(ep *Endpoint) *Caller {
	scope := ep.Metrics().Scope("rpc").Scope("client").Scope(ep.NodeName())
	return &Caller{
		ep:          ep,
		lateReplies: scope.Counter("late_replies"),
		retries:     scope.Counter("retries"),
	}
}

// Endpoint returns the caller's endpoint.
func (c *Caller) Endpoint() *Endpoint { return c.ep }

// SetRetry arms Call with a retry policy. rng seeds the backoff jitter and
// may be nil for a default seed; pass a per-caller seeded generator to keep
// chaos runs deterministic.
func (c *Caller) SetRetry(pol RetryPolicy, rng *sim.Rand) {
	if rng == nil {
		rng = sim.NewRand(0)
	}
	c.retry, c.rng = pol, rng
}

// Retry returns the caller's retry policy (zero if disabled).
func (c *Caller) Retry() RetryPolicy { return c.retry }

// SetClass stamps every request this caller sends with a scheduling class
// (0 = foreground, the default). Admission-controlled servers use it to run
// foreground traffic ahead of background batches (burst drains).
func (c *Caller) SetClass(class uint8) { c.class = class }

// SetBreaker arms the caller with a circuit breaker. nil disarms.
func (c *Caller) SetBreaker(b Breaker) { c.breaker = b }

// Call sends req (occupying reqSize bytes on the wire, in addition to the
// portals header) to the server at (target, pt) and blocks p for the
// response. respSize tells the server how large its answer is on the wire.
// With a retry policy armed (SetRetry), lost requests or responses are
// retried under a per-attempt timeout with exponential backoff; the server
// deduplicates re-executions, so retried calls stay exactly-once. Every
// attempt carries the request ID and the endpoint's ack watermark: the lowest
// request ID of the node's retryable calls still outstanding, this one
// included, so every such call below it has returned (an implicit
// acknowledgement, as in Birrell and Nelson's RPC).
func (c *Caller) Call(p *sim.Proc, target netsim.NodeID, pt Index, req interface{}, reqSize, respSize int64) (interface{}, error) {
	if !c.retry.Enabled() {
		return c.call(p, target, pt, req, reqSize, respSize, 0, 0)
	}
	reqID := c.ep.openCall()
	var v interface{}
	var err error
	for a := 0; a < c.retry.MaxAttempts; a++ {
		if a > 0 {
			c.retries.Inc()
			p.Sleep(c.retry.Pause(a-1, c.rng))
		}
		v, err = c.call(p, target, pt, req, reqSize, respSize, c.retry.Timeout, reqID)
		// Only a lost message is retried. ErrCircuitOpen is a fast-fail:
		// retrying would just spin on the open breaker (it wraps
		// ErrRPCTimeout so the caller's failover logic still reads it as
		// "route around").
		if !FailStop(err) || errors.Is(err, ErrCircuitOpen) {
			break
		}
	}
	c.ep.closeCall(reqID)
	return v, err
}

// CallTimeout is Call with a deadline and exactly one attempt; it returns
// ErrRPCTimeout if no response arrives in time. A response that arrives
// later is dropped at the reply portal and counted (late_replies) — reply
// tokens are never reused, so a late response can never satisfy a
// different call.
func (c *Caller) CallTimeout(p *sim.Proc, target netsim.NodeID, pt Index, req interface{}, reqSize, respSize int64, timeout time.Duration) (interface{}, error) {
	return c.call(p, target, pt, req, reqSize, respSize, timeout, 0)
}

func (c *Caller) call(p *sim.Proc, target netsim.NodeID, pt Index, req interface{}, reqSize, respSize int64, timeout time.Duration, reqID uint64) (interface{}, error) {
	if c.breaker != nil && !c.breaker.Allow(target, pt) {
		return nil, ErrCircuitOpen
	}
	token := c.ep.nextTok()
	slot := c.ep.Post(replyPortal, MatchBits(token), true)
	out := c.ep.record(pt, 0, netsim.SyntheticPayload(reqSize))
	out.kind, out.req = wireRequest, rpcRequest{Token: token, ReqID: reqID, From: c.ep.Node(), Class: c.class, AckLag: c.ep.ackLag(reqID), Body: req, RespSize: respSize}
	c.ep.send(target, out)

	ev, ok := slot.Wait(p, timeout)
	if !ok {
		// If the response is merely late (not lost), count it when it
		// finally lands instead of mistaking it for a stray message.
		c.ep.watchLate(replyPortal, MatchBits(token), func() {
			c.lateReplies.Inc()
		})
		if c.breaker != nil {
			c.breaker.Record(target, pt, ErrRPCTimeout)
		}
		return nil, ErrRPCTimeout
	}
	if ev.live().kind != wireResponse {
		panic(fmt.Sprintf("portals: reply slot of token %d received a record of kind %d", token, ev.kind))
	}
	resp := ev.resp
	ev.Release()
	slot.Close()
	if c.breaker != nil {
		c.breaker.Record(target, pt, resp.Err)
	}
	return resp.Body, resp.Err
}
