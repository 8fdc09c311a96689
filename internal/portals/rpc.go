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
// response back to the client's ReplyPortal matched by that token.
//
// Bulk data never rides on RPC — it moves via one-sided Get/Put against the
// memory descriptors named inside request headers (server-directed I/O).

// rpcHead is what a request's wire header says beyond its body and the
// reply token.
type rpcHead struct {
	ReqID    uint64 // nonzero for retryable calls; servers dedup on (From, ReqID)
	Class    uint8  // scheduling class (Caller.SetClass); 0 = foreground
	Op       uint16 // the operation (Op.id) Body is a request of
	AckLag   uint32 // ReqID minus the sender's ack watermark (rpcRequest.ack)
	RespSize int64  // wire size the response should occupy (0 => header only)
}

// rpcRequest is an RPC request as the server holds it, out of its record:
// the header, the sender, the reply token and the body's cell. A reply
// travels back as a wireResponse record: its body's cell and an error value.
// Errors keep their identity (errors.Is against the service packages'
// sentinel errors): message bodies are in-memory values throughout the
// simulated network, so that costs nothing and makes the client API honest.
type rpcRequest struct {
	rpcHead
	Token uint64
	From  netsim.NodeID
	Body  body
}

// ack is the sender's ack watermark: every retryable call From made below it
// has returned. It travels as a lag behind ReqID, in the padding after Class
// (with Op), so the header stays three words.
func (r *rpcRequest) ack() uint64 { return r.ReqID - uint64(r.AckLag) }

// Handler is the untyped form of a handler (Serve): it processes one
// request on a service process, may block (sleep for service time, do disk
// I/O, issue portals Gets), and its returned body travels back to the
// caller.
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
	Body  interface{} // the request value's address, in its cell

	req rpcRequest // the zero value for a Delivery the Server did not make
}

// Discard releases the request of a delivery a Dispatcher drops unserved.
func (d Delivery) Discard() {
	if d.req.Body != nil {
		d.req.Body.release()
	}
}

// Dispatcher is a pluggable queue discipline between request arrival and the
// service threads (an admission controller). Submit is called on arrival: it
// either queues the delivery or rejects it with an error (typically
// ErrOverload) which is sent straight back to the caller without consuming a
// service thread. The server wakes one service thread per admitted delivery,
// and that thread calls Next: the dispatcher picks which queued delivery it
// gets (fair-share, priority), and answers with the zero Delivery when the
// queue was cleared in the meantime. Len reports queued deliveries; Clear
// discards them all (server crash, Delivery.Discard) and returns how many
// were dropped.
type Dispatcher interface {
	Submit(d Delivery) error
	Next(p *sim.Proc) Delivery
	Len() int
	Clear() int
}

// dedupEntry is one retryable request a server has started for a sender: in
// flight until done, then its response, kept (the table's own cell) for a
// retransmission until the sender's ack watermark passes it. wait is made
// only by a duplicate that finds the original still in flight.
type dedupEntry struct {
	reqID uint64
	done  bool
	body  body
	err   error
	wait  *flight
}

// flight is an execution duplicates wait on: done completes with a copy of
// its reply, which each waiter copies again but the last, who takes it.
type flight struct {
	done    *sim.Future
	waiters int
}

// cloneBody copies a reply for another owner.
func cloneBody(b body) body {
	if b == nil {
		return nil
	}
	return b.clone()
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
		} else if e.body != nil {
			e.body.release()
		}
	}
	clear(sn.reqs[len(kept):])
	sn.reqs = kept
}

// finish records the response of the execution of reqID for its
// retransmissions and hands it to the duplicates waiting on it; an entry the
// watermark passed while it ran is dropped instead.
func (sn *sender) finish(reqID uint64, b body, err error) {
	i := sn.find(reqID)
	if f := sn.reqs[i].wait; f != nil {
		f.done.Complete(cloneBody(b), err)
	}
	if reqID < sn.ack {
		sn.reqs = slices.Delete(sn.reqs, i, i+1)
		return
	}
	sn.reqs[i] = dedupEntry{reqID: reqID, done: true, body: cloneBody(b), err: err}
}

// duplicate answers a retransmission of e's request: a copy of the reply e
// keeps or, while the original still runs, of the reply it will give.
func duplicate(p *sim.Proc, e *dedupEntry) (body, error) {
	if e.done {
		return cloneBody(e.body), e.err
	}
	f := e.wait
	if f == nil {
		f = &flight{done: sim.NewFuture()}
		e.wait = f
	}
	f.waiters++
	v, err := f.done.Wait(p)
	b, _ := v.(body)
	if f.waiters--; f.waiters > 0 {
		return cloneBody(b), err
	}
	return b, err
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
	ep   *Endpoint
	pt   Index
	name string
	q    *sim.Mailbox
	fns  []serveFn // the service's Ops, by Op id
	recv any       // the receiver they run on

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

// Serve is ServeOps for an untyped handler: it answers every request as one
// Op[any, any], which is how Caller.Call sends.
func Serve(ep *Endpoint, pt Index, name string, threads int, handler Handler) *Server {
	return ServeOps(ep, pt, name, threads, anyOps, handler)
}

// ServeOps attaches an RPC server at (ep, pt) that answers ops's operations
// on recv, served by up to threads service processes. The server registers
// `rpc.<name>.served|deduped|discarded` counters and a
// `rpc.<name>.queue_depth` gauge in the network's metrics registry.
func ServeOps[S any](ep *Endpoint, pt Index, name string, threads int, ops *Ops[S], recv S) *Server {
	if threads <= 0 {
		panic(fmt.Sprintf("portals: server %q: need at least one thread", name))
	}
	k := ep.Kernel()
	scope := ep.Metrics().Scope("rpc").Scope(metricName(name))
	s := &Server{
		ep: ep, pt: pt, name: name,
		q:         sim.NewMailbox(k, name+"/rpcq"),
		fns:       ops.fns,
		recv:      recv,
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
			req.Body.release()
			continue
		}
		if err := s.disp.Submit(Delivery{From: req.From, Class: req.Class, Body: req.Body.view(), req: req}); err != nil {
			s.shedReply(s.epoch, req, err)
			continue
		}
		s.work.Send(struct{}{})
	}
}

// shedReply answers a rejected request with err and no payload. Sheds are
// counted separately from served: the handler never ran.
func (s *Server) shedReply(epoch uint64, req rpcRequest, err error) {
	req.Body.release()
	if s.down || epoch != s.epoch {
		return
	}
	s.shed.Inc()
	s.respond(req, nil, err, 0)
}

// takeRequest moves the request, with its cell, out of the record that
// carried it and releases the record; ok is false for any other Put, which
// the caller drops.
func takeRequest(ev *Event) (req rpcRequest, ok bool) {
	if ev.live().kind == wireRequest {
		req, ok = rpcRequest{rpcHead: ev.rpc, Token: ev.token, From: ev.Initiator, Body: ev.body}, true
		ev.body = nil
	}
	ev.Release()
	return req, ok
}

// respond puts the response to req, occupying size payload bytes, on the
// wire; the caller takes b.
func (s *Server) respond(req rpcRequest, b body, err error, size int64) {
	ev := s.ep.record(ReplyPortal, MatchBits(req.Token), netsim.SyntheticPayload(size))
	ev.kind, ev.body, ev.err = wireResponse, b, err
	s.ep.send(req.From, ev)
}

// Down reports whether the server is crashed.
func (s *Server) Down() bool { return s.down }

// SetDown crashes (true) or restarts (false) the server. Crashing discards
// queued requests, frees the workers whose duplicates wait on an execution,
// forgets the volatile dedup table (releasing the replies it kept), and
// suppresses replies from handler
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
				if e.body != nil {
					e.body.release()
				}
				if e.wait != nil {
					e.wait.done.Complete(nil, nil) // the epoch suppresses its reply
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

// reply sends b, or releases it if the server crashed (or crashed and
// restarted) since this execution began.
func (s *Server) reply(epoch uint64, req rpcRequest, b body, err error) {
	if s.down || epoch != s.epoch {
		if b != nil {
			b.release()
		}
		return
	}
	s.served.Inc()
	s.respond(req, b, err, req.RespSize)
}

// handle runs req's handler, which takes the request's cell; an op the
// table lacks is answered errNoOp.
func (s *Server) handle(p *sim.Proc, req rpcRequest) (body, error) {
	if int(req.Op) < len(s.fns) && s.fns[req.Op] != nil {
		return s.fns[req.Op](s.recv, p, req.From, req.Body)
	}
	req.Body.release()
	return nil, errNoOp
}

func (s *Server) worker(p *sim.Proc) {
	for {
		var req rpcRequest
		if s.disp != nil {
			s.work.Recv(p)
			del := s.disp.Next(p)
			if del.req.Body == nil {
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
			req.Body.release()
			continue
		}
		epoch := s.epoch
		if req.ReqID == 0 {
			b, err := s.handle(p, req)
			s.reply(epoch, req, b, err)
			continue
		}
		sn := s.sender(req.From)
		sn.acked(req.ack())
		if req.ReqID < sn.ack {
			s.discarded.Inc() // a retransmission whose caller has returned
			req.Body.release()
			continue
		}
		if i := sn.find(req.ReqID); i >= 0 {
			// Retry of a request we have seen: read (or wait for) the
			// original execution's result and answer at this reply token.
			s.deduped.Inc()
			req.Body.release()
			b, err := duplicate(p, &sn.reqs[i])
			s.reply(epoch, req, b, err)
			continue
		}
		sn.reqs = append(sn.reqs, dedupEntry{reqID: req.ReqID})
		b, err := s.handle(p, req)
		if epoch == s.epoch { // else a crash forgot sn and woke its waiters
			sn.finish(req.ReqID, b, err)
		}
		s.reply(epoch, req, b, err)
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

// ErrRPCTimeout is returned by an attempt whose deadline passed.
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
}

// NewCaller creates a caller on ep. The callers on a node count into its
// endpoint's rpc.client.<node>.late_replies (responses that arrived after
// their attempt timed out, dropped at ReplyPortal; the same count as
// portals.<node>.late_drops) and retries (re-sent attempts).
func NewCaller(ep *Endpoint) *Caller {
	if !ep.calls {
		ep.calls = true
		ep.pool.callers.list = append(ep.pool.callers.list, ep)
	}
	return &Caller{ep: ep}
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

// Call is Invoke for an untyped request, which Serve's handlers answer.
func (c *Caller) Call(p *sim.Proc, target netsim.NodeID, pt Index, req interface{}, reqSize, respSize int64) (interface{}, error) {
	return Invoke(c, p, target, pt, anyOp, &req, reqSize, respSize)
}

// retried is Invoke's attempt loop under a retry policy: lost requests or
// responses are retried under a per-attempt timeout with exponential
// backoff, each attempt sending its own copy of req (retried releases req);
// the server deduplicates re-executions, so retried calls stay exactly-once.
// Every attempt carries the request ID and the endpoint's ack watermark: the
// lowest request ID of the node's retryable calls still outstanding, this
// one included, so every such call below it has returned (an implicit
// acknowledgement, as in Birrell and Nelson's RPC).
func (c *Caller) retried(p *sim.Proc, target netsim.NodeID, pt Index, op uint16, req body, reqSize, respSize int64) (body, error) {
	reqID := c.ep.openCall()
	var b body
	var err error
	for a := 0; a < c.retry.MaxAttempts; a++ {
		if a > 0 {
			c.ep.retries.Inc()
			p.Sleep(c.retry.Pause(a-1, c.rng))
		}
		b, err = c.call(p, target, pt, op, req.clone(), reqSize, respSize, c.retry.Timeout, reqID)
		// Only a lost message is retried. ErrCircuitOpen is a fast-fail:
		// retrying would just spin on the open breaker (it wraps
		// ErrRPCTimeout so the caller's failover logic still reads it as
		// "route around").
		if !FailStop(err) || errors.Is(err, ErrCircuitOpen) {
			break
		}
	}
	req.release()
	c.ep.closeCall(reqID)
	return b, err
}

// timedOut is call's attempt without a reply. The wait closed the slot, so
// a merely late reply finds no match and is counted where it drops
// (dropNoMatch). It and badReply stay out of line, off the frame under every
// process parked in an RPC.
//
//go:noinline
func (c *Caller) timedOut(target netsim.NodeID, pt Index) error {
	if c.breaker != nil {
		c.breaker.Record(target, pt, ErrRPCTimeout)
	}
	return ErrRPCTimeout
}

//go:noinline
func badReply(token uint64, kind wireKind) {
	panic(fmt.Sprintf("portals: reply slot of token %d received a record of kind %d", token, kind))
}

// call is one attempt: it sends req, which the server takes, and returns the
// reply's cell, which the caller takes.
func (c *Caller) call(p *sim.Proc, target netsim.NodeID, pt Index, op uint16, req body, reqSize, respSize int64, timeout time.Duration, reqID uint64) (body, error) {
	if c.breaker != nil && !c.breaker.Allow(target, pt) {
		req.release()
		return nil, ErrCircuitOpen
	}
	token := c.ep.NextToken()
	slot := c.ep.Post(ReplyPortal, MatchBits(token), true)
	out := c.ep.record(pt, 0, netsim.SyntheticPayload(reqSize))
	out.kind, out.body, out.token = wireRequest, req, token
	out.rpc = rpcHead{ReqID: reqID, Class: c.class, Op: op, AckLag: c.ep.ackLag(reqID), RespSize: respSize}
	c.ep.send(target, out)

	ev, ok := slot.Wait(p, timeout)
	if !ok {
		return nil, c.timedOut(target, pt)
	}
	if ev.live().kind != wireResponse {
		badReply(token, ev.kind)
	}
	b, err := ev.body, ev.err
	ev.body = nil
	ev.Release()
	slot.Close()
	if c.breaker != nil {
		c.breaker.Record(target, pt, err)
	}
	return b, err
}
