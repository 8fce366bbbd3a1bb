// Package serve is a network request-serving subsystem built strictly on
// the MP public surface: every stage of the request path — accept,
// admission, queueing, dispatch, handling, response — runs as MP threads
// (threads.Fork) synchronized with syncx semaphores, mutex locks, and the
// CML virtual clock; there is not a single raw goroutine, Go channel,
// receive expression or select statement in this package (a go/scanner
// test enforces it).  Serving is therefore a sixth, externally-driven
// workload for the platform: the paper's claim that procs + locks +
// continuations suffice for real concurrent clients, now taking traffic
// from outside the process.
//
// Pipeline (each arrow is an MP construct, not a Go one):
//
//		acceptor ──enqueue──▶ bounded accept queue ──items semaphore──▶
//		dispatcher ──slots semaphore──▶ forked worker ──respond──▶ client
//
//	  - The acceptor polls the TCP listener with short deadlines so it
//	    remains a cooperative thread (yield/preempt/drain at every loop).
//	  - Admission control is a bounded accept queue plus a bounded
//	    in-flight slot semaphore; when the queue is full the acceptor sheds
//	    the connection immediately with 503 + Retry-After instead of
//	    queueing unboundedly.
//	  - Connections are persistent (HTTP/1.1 keep-alive, see conn.go): a
//	    worker owns its connection for the connection's lifetime, serving
//	    pipelined requests in order, and the in-flight slot bounds
//	    concurrently-served connections.
//	  - Per-request deadlines ride on the CML clock (package cml): ticks
//	    are pumped from wall time by a dedicated thread, blocked reads and
//	    writes park on clock events instead of spinning, and handlers
//	    cancel at safe points when the deadline passes (504).
//	  - Graceful drain is wired to the platform's dynamic processor
//	    allowance: Drain marks the server draining and shrinks the
//	    allowance with proc.SetLimit, so procs release themselves at safe
//	    points (threads.Dispatch honors Revoked), in-flight requests finish
//	    on the survivors, queued-but-unstarted requests are shed, idle
//	    keep-alive connections close, and the platform quiesces — zero
//	    in-flight requests dropped.
//	  - Every stage emits to the unified observability spine
//	    (internal/metrics counters/histograms on the platform registry,
//	    internal/trace events on the acting proc's ring), exposed over HTTP
//	    via /metrics and /trace; the access log is written through
//	    internal/mlio under the per-stream locking policy and carries the
//	    server's shard id so fabric logs stay attributable.
//
// Beyond its own listener, a Server also serves as one *shard* of the
// internal/shard fabric: Options.NoListener suppresses the acceptor and
// Submit injects already-parsed requests (forwarded by the fabric's
// front acceptor over per-shard rings) into the same admission pipeline.
package serve

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/cml"
	"repro/internal/core"
	"repro/internal/gcsync"
	"repro/internal/metrics"
	"repro/internal/mlheap"
	"repro/internal/mlio"
	"repro/internal/proc"
	"repro/internal/queue"
	"repro/internal/syncx"
	"repro/internal/threads"
	"repro/internal/trace"
)

// Options parameterize a Server.
type Options struct {
	// Addr is the TCP listen address; empty means "127.0.0.1:0".
	Addr string
	// NoListener suppresses the listener and acceptor thread entirely:
	// the server takes requests only via Submit — the shard-backend mode
	// used by internal/shard.
	NoListener bool
	// ShardID labels this server's access-log lines; fabric shards get
	// distinct ids (default 0).
	ShardID int
	// MaxInFlight bounds concurrently-served connections (default 64).
	MaxInFlight int
	// QueueDepth bounds the accept queue; a connection arriving with the
	// queue full is shed with 503 (default 128).
	QueueDepth int
	// DeadlineTicks is the per-request deadline in clock ticks, measured
	// from the request's first byte (default 2000).
	DeadlineTicks int64
	// DispatchBatch bounds how many queued units the dispatcher drains per
	// items-semaphore wakeup: one blocking P, then up to DispatchBatch-1
	// more credits taken without blocking, all dequeued under a single
	// state-lock critical section (default 16; 1 restores the pre-batching
	// one-wakeup-per-unit behavior).
	DispatchBatch int
	// KeepAliveIdleTicks bounds how long a persistent connection may sit
	// idle between requests before it is closed (default DeadlineTicks).
	KeepAliveIdleTicks int64
	// DisableKeepAlive forces Connection: close on every response, the
	// pre-fabric one-request-per-connection behavior (benchmark baseline).
	DisableKeepAlive bool
	// Tick is the wall duration of one clock tick (default 1ms).
	Tick time.Duration
	// PollWindow is how long a single blocking accept/read/write may hold
	// a proc before the thread parks on the clock (default 1ms).
	PollWindow time.Duration
	// RetryAfter is the Retry-After hint, in seconds, on shed responses
	// (default 1).
	RetryAfter int
	// StreamHeartbeatTicks is how long a chunked streaming response may
	// stay quiet before the worker writes a heartbeat chunk — both a
	// keep-alive and the dead-subscriber detector (default 2500; a
	// negative value disables heartbeats).
	StreamHeartbeatTicks int64
	// Log, when non-nil, is a shared mlio runtime for the access log; the
	// fabric passes one runtime to every shard so their lines interleave
	// in a single stream.  Pair with LogPolicy.  Default: a private
	// runtime under a per-stream lock.
	Log *mlio.Runtime
	// LogPolicy is the locking policy for access-log writes; must be set
	// when Log is shared (all writers need the same policy instance).
	LogPolicy mlio.Policy
	// Tracer, if non-nil, receives per-stage events; /trace serves its
	// contents via a stop-the-world snapshot.  It must be private to the
	// server — do not share it with threads.Options.Tracer: the snapshot
	// protocol quiesces serve's own emitters only, and scheduler emits
	// (dispatch/yield on every operation) would race with the ring
	// reads.  For a whole-system trace, attach a second tracer to the
	// scheduler and export it after Run returns, as cmd/mpbench does.
	Tracer *trace.Tracer
	// ExtraMetrics are additional named registries /metrics renders after
	// the platform and default registries — the fabric front hands its
	// own registry to every backend shard this way, so the front's
	// park/wakeup/resume counters show up on any shard's /metrics.
	ExtraMetrics []NamedRegistry
	// MLWorld, when non-nil, is a shared gcsync heap world for this
	// server's procs: the /work/mlalloc allocating kernel is installed,
	// the world's yield hook is pointed at the thread scheduler, the
	// world's registry (pause/copy/section counters) joins /metrics, and
	// the admission semaphores' guards, the state lock and the mlalloc
	// shared-registry lock poll the world's GC section, so a thread
	// waiting on a serving-path lock joins or helps a pending collection
	// instead of convoying it.
	MLWorld *gcsync.World
	// FairLocks replaces the TAS spin locks guarding the admission
	// semaphores, state lock, and mlalloc registry lock with the FIFO
	// claim/release locks (syncx.FairLock): contenders queue in claim
	// order and releases hand off instead of re-racing, so under skew no
	// dispatcher loses the acquisition race repeatedly.  Off by default.
	FairLocks bool
}

// NamedRegistry labels a metrics registry for /metrics rendering.
type NamedRegistry struct {
	Name string
	Reg  *metrics.Registry
}

func (o *Options) fill() {
	if o.Addr == "" {
		o.Addr = "127.0.0.1:0"
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 64
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 128
	}
	if o.DeadlineTicks <= 0 {
		o.DeadlineTicks = 2000
	}
	if o.DispatchBatch <= 0 {
		o.DispatchBatch = 16
	}
	if o.KeepAliveIdleTicks <= 0 {
		o.KeepAliveIdleTicks = o.DeadlineTicks
	}
	if o.Tick <= 0 {
		o.Tick = time.Millisecond
	}
	if o.PollWindow <= 0 {
		o.PollWindow = time.Millisecond
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = 1
	}
	if o.StreamHeartbeatTicks == 0 {
		o.StreamHeartbeatTicks = 2500
	} else if o.StreamHeartbeatTicks < 0 {
		o.StreamHeartbeatTicks = 0
	}
}

// job is one injected (fabric-forwarded) request awaiting dispatch.
type job struct {
	req     *Request
	deliver func(Response)
}

// pending is one unit of admitted work waiting for dispatch: an accepted
// connection (direct path) or an injected request (Submit path).
type pending struct {
	conn    net.Conn
	job     *job
	arrival int64 // clock tick at admission
}

// serveMetrics caches the server's instrument handles; all are sharded
// on the platform registry so the request path never takes the registry
// lock.
type serveMetrics struct {
	accepted      *metrics.Counter
	acceptErrs    *metrics.Counter
	queued        *metrics.Counter
	queueDepth    *metrics.Counter // gauge: +1 enqueue, -1 dequeue
	inflight      *metrics.Counter // gauge: +1 dispatch, -1 done
	submitted     *metrics.Counter
	shedQueue     *metrics.Counter
	shedDrain     *metrics.Counter
	dispatched    *metrics.Counter
	expired       *metrics.Counter
	handled       *metrics.Counter
	responded     *metrics.Counter
	keepalive     *metrics.Counter // requests served beyond a conn's first
	readErrs      *metrics.Counter
	readParks     *metrics.Counter
	latencyTicks  *metrics.Histogram
	queueTicks    *metrics.Histogram
	dispatchBatch *metrics.Histogram // units drained per items wakeup
	writeBatch    *metrics.Histogram // responses coalesced per socket-write batch
}

// Server is the serving subsystem; create with New, start with Serve
// from inside System.Run, stop with Drain.
type Server struct {
	sys  *threads.System
	pl   *proc.Platform
	opts Options
	ln   *net.TCPListener

	clock *cml.Clock
	items *syncx.Semaphore // accept-queue occupancy (V by acceptor, P by dispatcher)
	slots *syncx.Semaphore // in-flight connection capacity
	pool  *BufPool
	ccfg  ConnConfig

	mlWorld  *gcsync.World // shared ML heap world (Options.MLWorld)
	mlLock   core.Lock     // guards the mlalloc shared registry record
	mlShared mlheap.Value  // registry record /work/mlalloc requests publish into

	state          core.Lock // guards all fields below
	acceptQ        queue.Queue[pending]
	active         int // dispatched work units not yet finished
	holds          int // outstanding Hold()s keeping the pumps alive
	drainHooks     []func()
	draining       bool
	acceptorDone   bool
	dispatcherDone bool
	acceptorIdle   bool // parked by the trace-snapshot barrier
	dispatcherIdle bool // parked on the items semaphore
	tracePause     bool // a /trace snapshot is stopping the world

	routes []route

	m      serveMetrics
	tracer *trace.Tracer
	evAccept, evEnqueue, evShed, evDispatch,
	evHandle, evRespond, evDrain trace.EventID

	logrt  *mlio.Runtime
	logpol mlio.Policy
}

// New opens the listener (unless Options.NoListener) and prepares a
// server over the given thread system.  The system is not started here;
// call Serve from the root thread inside sys.Run.
func New(sys *threads.System, opts Options) (*Server, error) {
	opts.fill()
	var tln *net.TCPListener
	if !opts.NoListener {
		ln, err := net.Listen("tcp", opts.Addr)
		if err != nil {
			return nil, err
		}
		var ok bool
		tln, ok = ln.(*net.TCPListener)
		if !ok {
			ln.Close()
			return nil, fmt.Errorf("serve: listener %T is not a *net.TCPListener", ln)
		}
	}
	// With an ML world, the admission semaphores' guards and the state
	// lock poll the GC section on every acquisition: these are exactly
	// the locks a stopped-for-collection worker may hold, and a waiter
	// that cannot reach a clean point would convoy the whole stop.
	lockf := syncx.LockFactory(opts.FairLocks, opts.MLWorld, nil)
	srv := &Server{
		sys:     sys,
		pl:      sys.Platform(),
		opts:    opts,
		ln:      tln,
		clock:   cml.NewClock(),
		items:   syncx.NewSemaphoreWith(sys, 0, lockf),
		slots:   syncx.NewSemaphoreWith(sys, opts.MaxInFlight, lockf),
		pool:    NewBufPool(sys.Platform().MaxProcs()),
		state:   lockf(),
		acceptQ: queue.NewFifo[pending](),
		tracer:  opts.Tracer,
		logrt:   opts.Log,
		logpol:  opts.LogPolicy,
	}
	if srv.logrt == nil {
		srv.logrt = mlio.NewRuntime()
	}
	if srv.logpol == nil {
		srv.logpol = mlio.NewPerStream()
	}
	if opts.NoListener {
		srv.acceptorDone = true
	}
	reg := sys.Metrics()
	bounds := []int64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}
	srv.m = serveMetrics{
		accepted:     reg.Counter("serve.accepted"),
		acceptErrs:   reg.Counter("serve.accept_errors"),
		queued:       reg.Counter("serve.queued"),
		queueDepth:   reg.Counter("serve.queue_depth"),
		inflight:     reg.Counter("serve.inflight"),
		submitted:    reg.Counter("serve.submitted"),
		shedQueue:    reg.Counter("serve.shed_queue_full"),
		shedDrain:    reg.Counter("serve.shed_draining"),
		dispatched:   reg.Counter("serve.dispatched"),
		expired:      reg.Counter("serve.deadline_expired"),
		handled:      reg.Counter("serve.handled"),
		responded:    reg.Counter("serve.responded"),
		keepalive:    reg.Counter("serve.keepalive_reqs"),
		readErrs:     reg.Counter("serve.read_errors"),
		readParks:    reg.Counter("serve.read_parks"),
		latencyTicks: reg.Histogram("serve.latency_ticks", bounds),
		queueTicks:   reg.Histogram("serve.queue_ticks", bounds),
		dispatchBatch: reg.Histogram("serve.dispatch_batch",
			[]int64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}),
		writeBatch: reg.Histogram("serve.write_batch",
			[]int64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}),
	}
	if srv.tracer != nil {
		srv.evAccept = srv.tracer.Define("serve.accept")
		srv.evEnqueue = srv.tracer.Define("serve.enqueue")
		srv.evShed = srv.tracer.Define("serve.shed")
		srv.evDispatch = srv.tracer.Define("serve.dispatch")
		srv.evHandle = srv.tracer.Define("serve.handle")
		srv.evRespond = srv.tracer.Define("serve.respond")
		srv.evDrain = srv.tracer.Define("serve.drain")
	}
	srv.ccfg = ConnConfig{
		Clock:        srv.clock,
		Park:         srv.park,
		PollWindow:   srv.opts.PollWindow,
		Tick:         srv.opts.Tick,
		Pool:         srv.pool,
		OnReadPark:   func() { srv.m.readParks.Inc(proc.Self()) },
		OnWriteBatch: func(n int) { srv.m.writeBatch.Observe(proc.Self(), int64(n)) },
		Aborted:      srv.Draining,
	}
	srv.installBuiltins()
	if opts.MLWorld != nil {
		srv.initMLAlloc(lockf())
		srv.opts.ExtraMetrics = append(srv.opts.ExtraMetrics,
			NamedRegistry{Name: "mlheap", Reg: opts.MLWorld.Heap().Metrics()})
	}
	return srv, nil
}

// Addr returns the listener's address (useful with ":0"); nil in
// NoListener mode.
func (srv *Server) Addr() net.Addr {
	if srv.ln == nil {
		return nil
	}
	return srv.ln.Addr()
}

// Clock returns the server's CML clock; one tick is Options.Tick of
// wall time once Serve's pump thread is running.
func (srv *Server) Clock() *cml.Clock { return srv.clock }

// System returns the thread system the server schedules on.
func (srv *Server) System() *threads.System { return srv.sys }

// InFlight reports the number of dispatched, not-yet-finished work units
// (connections being served plus injected requests).
func (srv *Server) InFlight() int {
	srv.state.Lock()
	defer srv.state.Unlock()
	return srv.active
}

// QueueLen reports the current accept-queue depth.
func (srv *Server) QueueLen() int {
	srv.state.Lock()
	defer srv.state.Unlock()
	return srv.acceptQ.Len()
}

// Draining reports whether Drain has been called.
func (srv *Server) Draining() bool {
	srv.state.Lock()
	defer srv.state.Unlock()
	return srv.draining
}

// AccessLog snapshots the access log (one line per response, written
// through mlio's per-stream locking policy).
func (srv *Server) AccessLog() []byte { return srv.logrt.Contents("access") }

// Serve starts the serving threads — clock pump, dispatcher, and (with a
// listener) acceptor — and returns; it must be called from an MP thread
// (inside System.Run).  The system quiesces, and Run returns, after
// Drain completes.
func (srv *Server) Serve() {
	srv.sys.Fork(func() { srv.pump() })
	srv.sys.Fork(func() { srv.dispatcher() })
	if srv.ln != nil {
		srv.sys.Fork(func() { srv.acceptor() })
	}
}

// Drain initiates graceful shutdown: new connections are shed, queued
// requests are refused, in-flight requests run to completion, idle
// keep-alive connections close at their next safe point, and the
// physical-processor allowance is shrunk to one so procs release
// themselves at their next safe point (§3.1's revocation, reused as the
// drain mechanism).  Safe to call from any goroutine, including a signal
// handler outside the MP world; idempotent.
func (srv *Server) Drain() {
	srv.state.Lock()
	already := srv.draining
	srv.draining = true
	hooks := srv.drainHooks
	srv.drainHooks = nil
	srv.state.Unlock()
	if already {
		return
	}
	// Drain hooks fire exactly once, outside the state lock — subsystems
	// riding on this server (the pubsub broker) begin their own shutdown
	// here and release their Hold when done.
	for _, h := range hooks {
		h()
	}
	// Procs discover the shrunken allowance at dispatch safe points and
	// release; in-flight work finishes on the survivor.
	srv.pl.SetLimit(1)
	if srv.opts.NoListener {
		// No acceptor to poison the dispatcher; do it here.
		srv.items.Release()
	}
}

// OnDrain registers a hook run exactly once when Drain first fires (on
// the draining caller, before the allowance shrinks).  If the server is
// already draining the hook runs immediately.  Register before Serve or
// from any goroutine.
func (srv *Server) OnDrain(f func()) {
	srv.state.Lock()
	if srv.draining {
		srv.state.Unlock()
		f()
		return
	}
	srv.drainHooks = append(srv.drainHooks, f)
	srv.state.Unlock()
}

// Hold keeps the server's pumps (clock, scheduler occupancy) alive past
// the normal drain quiescence point until the returned release is
// called — how a subsystem with its own shutdown choreography (the
// pubsub broker flushing streams) extends the server's lifetime.  The
// release is idempotent and callable from any goroutine.
func (srv *Server) Hold() (release func()) {
	srv.state.Lock()
	srv.holds++
	srv.state.Unlock()
	released := false
	return func() {
		srv.state.Lock()
		if !released {
			released = true
			srv.holds--
		}
		srv.state.Unlock()
	}
}

// park suspends the calling thread for the given number of clock ticks
// by synchronizing on the CML clock; the pump thread's Advance wakes it.
func (srv *Server) park(ticks int64) {
	cml.Sync(srv.sys, srv.clock.AfterEvt(ticks))
}

// emit records a trace event on the calling proc's own ring (the rings
// are single-writer; every serve emit is by the acting thread).
func (srv *Server) emit(ev trace.EventID, arg int64) {
	srv.tracer.Emit(proc.Self(), ev, arg)
}

// ------------------------------------------------------------------ pump

// pump advances the CML clock from wall time: one tick per Options.Tick
// elapsed.  It is the server's only time source — read/write waits and
// deadline checks all observe the virtual clock, so tests may substitute
// a hand-driven clock by never starting the pump.  The pump exits last,
// once drain has completed and every other serving thread is gone.
func (srv *Server) pump() {
	start := time.Now()
	var emitted int64
	for {
		target := int64(time.Since(start) / srv.opts.Tick)
		if d := target - emitted; d > 0 {
			srv.clock.Advance(srv.sys, d)
			emitted = target
		}
		srv.state.Lock()
		done := srv.draining && srv.acceptorDone && srv.dispatcherDone &&
			srv.active == 0 && srv.holds == 0
		srv.state.Unlock()
		if done {
			return
		}
		srv.sys.CheckPreempt()
		// Bound the busy-wait: sleep a fraction of a tick (briefly holding
		// this proc), then yield so co-resident threads run.
		time.Sleep(srv.opts.Tick / 4)
		srv.sys.Yield()
	}
}

// -------------------------------------------------------------- acceptor

// acceptor polls the listener cooperatively: a short accept deadline per
// attempt, then a yield, so the thread honors preemption, revocation,
// drain, and the trace-snapshot barrier at every iteration.
func (srv *Server) acceptor() {
	self := func() int { return proc.Self() }
	for {
		srv.acceptorBarrier()
		srv.state.Lock()
		stop := srv.draining
		srv.state.Unlock()
		if stop {
			break
		}
		srv.ln.SetDeadline(time.Now().Add(srv.opts.PollWindow))
		conn, err := srv.ln.Accept()
		if err != nil {
			if isTimeout(err) {
				srv.sys.CheckPreempt()
				srv.sys.Yield()
				continue
			}
			srv.m.acceptErrs.Inc(self())
			srv.sys.Yield()
			continue
		}
		now := srv.clock.Now()
		srv.m.accepted.Inc(self())
		srv.emit(srv.evAccept, now)

		srv.state.Lock()
		if srv.draining {
			srv.state.Unlock()
			srv.shedConn(conn, now, srv.m.shedDrain, "draining")
			break
		}
		if srv.acceptQ.Len() >= srv.opts.QueueDepth {
			srv.state.Unlock()
			srv.shedConn(conn, now, srv.m.shedQueue, "accept queue full")
			continue
		}
		srv.acceptQ.Enq(pending{conn: conn, arrival: now})
		srv.state.Unlock()
		srv.m.queued.Inc(self())
		srv.m.queueDepth.Inc(self())
		srv.emit(srv.evEnqueue, now)
		srv.items.Release()
	}
	srv.ln.Close()
	srv.emit(srv.evDrain, 0)
	srv.state.Lock()
	srv.acceptorDone = true
	srv.state.Unlock()
	// Poison: wake the dispatcher so it can observe drain and exit.
	srv.items.Release()
}

// acceptorBarrier parks the acceptor while a /trace snapshot is in
// progress.  The state-lock handoff here is also the happens-before edge
// that orders the acceptor's last ring emit before the snapshot's reads.
func (srv *Server) acceptorBarrier() {
	srv.state.Lock()
	if !srv.tracePause {
		srv.state.Unlock()
		return
	}
	srv.acceptorIdle = true
	srv.state.Unlock()
	for {
		srv.park(1)
		srv.state.Lock()
		if !srv.tracePause {
			srv.acceptorIdle = false
			srv.state.Unlock()
			return
		}
		srv.state.Unlock()
	}
}

// shedConn refuses a connection with 503 + Retry-After, best-effort: the
// write is capped to a few ticks so a dead client cannot stall the
// shedding thread.
func (srv *Server) shedConn(conn net.Conn, arrival int64, counter *metrics.Counter, why string) {
	counter.Inc(proc.Self())
	srv.emit(srv.evShed, arrival)
	resp := Response{
		Status:     503,
		Body:       []byte("shedding load: " + why + "\n"),
		RetryAfter: srv.opts.RetryAfter,
	}
	c := NewConn(conn, srv.ccfg)
	c.WriteResponse(resp, srv.clock.Now()+20, false)
	conn.Close()
	srv.logAccess(resp.Status, arrival, "-", "-")
}

// ---------------------------------------------------------------- submit

// Submit injects an already-parsed request into the admission pipeline —
// the shard-backend entry point used by internal/shard's forwarders.
// The request's deadline is rebased onto this server's clock from the
// caller-supplied remaining tick budget (front and shard clocks are
// independent).  deliver is called exactly once, from a worker MP thread
// of this server's system, with the response — unless Submit returns
// false (queue full or draining), in which case deliver is never called
// and the caller owns the shed response.  Submit must be called from an
// MP thread of this server's system.
func (srv *Server) Submit(req *Request, remaining int64, deliver func(Response)) bool {
	one := [1]SubmitJob{{Req: req, Remaining: remaining, Deliver: deliver}}
	return srv.SubmitMany(one[:]) == 1
}

// SubmitJob is one request in a SubmitMany batch.
type SubmitJob struct {
	Req       *Request
	Remaining int64 // deadline budget in ticks, rebased onto this clock
	Deliver   func(Response)
}

// SubmitMany injects a batch of already-parsed requests under a single
// admission critical section and a single batched V on the items
// semaphore — the fabric's multi-push intake path.  It admits a prefix
// of jobs bounded by queue headroom and returns its length; the caller
// owns shed responses for the rejected suffix (and for everything when
// the server is draining, in which case 0 is returned).
func (srv *Server) SubmitMany(jobs []SubmitJob) int {
	if len(jobs) == 0 {
		return 0
	}
	now := srv.clock.Now()
	self := proc.Self()
	srv.state.Lock()
	if srv.draining {
		srv.state.Unlock()
		srv.m.shedDrain.Add(self, int64(len(jobs)))
		return 0
	}
	n := srv.opts.QueueDepth - srv.acceptQ.Len()
	if n > len(jobs) {
		n = len(jobs)
	}
	if n < 0 {
		n = 0
	}
	for i := 0; i < n; i++ {
		sj := jobs[i]
		rem := sj.Remaining
		if rem < 1 {
			rem = 1
		}
		sj.Req.srv = srv
		sj.Req.Arrival = now
		sj.Req.Deadline = now + rem
		srv.acceptQ.Enq(pending{job: &job{req: sj.Req, deliver: sj.Deliver}, arrival: now})
	}
	srv.state.Unlock()
	if n > 0 {
		srv.m.queued.Add(self, int64(n))
		srv.m.queueDepth.Add(self, int64(n))
		srv.m.submitted.Add(self, int64(n))
		srv.emit(srv.evEnqueue, now)
		srv.items.ReleaseN(n)
	}
	if n < len(jobs) {
		srv.m.shedQueue.Add(self, int64(len(jobs)-n))
	}
	return n
}

// QueueHeadroom reports how many more units the accept queue can take
// right now (0 while draining).  The fabric's intake uses it to bound a
// batched pop from the forward ring: work beyond the headroom stays in
// the ring, where an idle sibling shard can steal it.
func (srv *Server) QueueHeadroom() int {
	srv.state.Lock()
	defer srv.state.Unlock()
	if srv.draining {
		return 0
	}
	n := srv.opts.QueueDepth - srv.acceptQ.Len()
	if n < 0 {
		n = 0
	}
	return n
}

// ------------------------------------------------------------ dispatcher

// dispatcher moves admitted work from the accept queue into workers in
// batches: one blocking P on the items semaphore, then up to
// DispatchBatch-1 further credits taken without blocking, then a single
// state-lock critical section that marks the dispatcher busy and
// dequeues the whole batch — so a producer's batched V of N credits is
// answered by one wakeup, not N, and the idle flag can never read true
// while credits are in hand (the flag is only raised after a failed
// non-blocking drain, and lowered together with the dequeue).  In-flight
// slots are reserved for the live batch with one TryAcquireN, falling
// back to a blocking P only for the shortfall.
func (srv *Server) dispatcher() {
	batchMax := srv.opts.DispatchBatch
	batch := make([]pending, batchMax)
	for {
		credits := srv.items.TryAcquireN(batchMax)
		if credits == 0 {
			// Genuinely nothing queued: advertise idle (the /trace
			// quiesce barrier reads it), park, un-advertise.
			srv.state.Lock()
			srv.dispatcherIdle = true
			srv.state.Unlock()
			srv.items.Acquire()
			srv.state.Lock()
			srv.dispatcherIdle = false
			srv.state.Unlock()
			credits = 1 + srv.items.TryAcquireN(batchMax-1)
		}

		srv.state.Lock()
		n := 0
		for n < credits {
			p, err := srv.acceptQ.Deq()
			if err != nil {
				break
			}
			batch[n] = p
			n++
		}
		draining := srv.draining
		// Enq always precedes Release under the state lock, so the queue
		// holds at least one unit per non-poison credit: a shortfall means
		// the drain poison was among the credits, and this batch is the
		// dispatcher's last.
		poisoned := n < credits && draining && srv.acceptorDone
		if poisoned && n == 0 {
			srv.dispatcherDone = true
			srv.state.Unlock()
			return
		}
		srv.state.Unlock()
		if n == 0 {
			continue
		}

		self := proc.Self()
		srv.m.queueDepth.Add(self, -int64(n))
		srv.m.dispatchBatch.Observe(self, int64(n))
		now := srv.clock.Now()
		live := 0
		for i := 0; i < n; i++ {
			p := batch[i]
			if draining {
				srv.shedPending(p)
				continue
			}
			deadline := p.arrival + srv.opts.DeadlineTicks
			if p.job != nil {
				deadline = p.job.req.Deadline
			}
			if now >= deadline {
				// Expired while queued: answer 504 without consuming a slot.
				srv.m.expired.Inc(self)
				resp := Response{Status: 504, Body: []byte("deadline exceeded in accept queue\n")}
				if p.job != nil {
					p.job.deliver(resp)
				} else {
					c := NewConn(p.conn, srv.ccfg)
					c.WriteResponse(resp, now+20, false)
					p.conn.Close()
				}
				srv.logAccess(504, p.arrival, "-", "-")
				continue
			}
			batch[live] = p
			live++
		}
		reserved := srv.slots.TryAcquireN(live)
		for i := 0; i < live; i++ {
			p := batch[i]
			if reserved > 0 {
				reserved--
			} else {
				srv.slots.Acquire()
			}
			srv.m.dispatched.Inc(self)
			srv.m.inflight.Inc(self)
			srv.m.queueTicks.Observe(self, srv.clock.Now()-p.arrival)
			srv.emit(srv.evDispatch, p.arrival)
			srv.state.Lock()
			srv.active++
			srv.state.Unlock()
			srv.sys.Fork(func() { srv.worker(p) })
		}
		for i := range batch {
			batch[i] = pending{} // drop conn/job references
		}
		if poisoned {
			srv.state.Lock()
			srv.dispatcherDone = true
			srv.state.Unlock()
			return
		}
	}
}

// shedPending refuses queued-but-unstarted work during drain.
func (srv *Server) shedPending(p pending) {
	resp := Response{
		Status:     503,
		Body:       []byte("shedding load: draining\n"),
		RetryAfter: srv.opts.RetryAfter,
	}
	if p.job != nil {
		srv.m.shedDrain.Inc(proc.Self())
		srv.emit(srv.evShed, p.arrival)
		p.job.deliver(resp)
		srv.logAccess(503, p.arrival, "-", "-")
		return
	}
	srv.shedConn(p.conn, p.arrival, srv.m.shedDrain, "draining")
}

// ---------------------------------------------------------------- worker

// worker serves one admitted unit, then returns its in-flight slot.  For
// a direct connection that means the connection's whole keep-alive
// lifetime: requests are read and answered in order until the client
// closes, opts out of keep-alive, errs, goes idle past the keep-alive
// budget, or the server drains.  A pipelined run is answered as a batch:
// after the blocking read delivers a request, every complete successor
// already buffered is handled too, and the whole run's responses go out
// through one WriteResponses.  All blocking inside (reads, writes,
// handler parks) is cooperative: short poll windows plus CML clock
// parks.
func (srv *Server) worker(p pending) {
	if p.job != nil {
		srv.jobWorker(p.job)
		return
	}
	c := NewConn(p.conn, srv.ccfg)
	arrival := p.arrival
	served := 0
	var resps []Response
	for {
		headBudget := srv.opts.DeadlineTicks
		if served > 0 {
			headBudget = srv.opts.KeepAliveIdleTicks
		}
		req, err := c.ReadRequest(arrival+headBudget, srv.opts.DeadlineTicks)
		var resp Response
		silent := false
		switch {
		case err == nil:
			resp = srv.handle(req)
		case errors.Is(err, ErrDeadline):
			if served > 0 && !c.Partial() {
				// Idle keep-alive connection ran out its budget: close
				// without a response — nothing was asked.
				silent = true
				break
			}
			srv.m.expired.Inc(proc.Self())
			resp = Response{Status: 504, Body: []byte("deadline exceeded reading request\n")}
		case errors.Is(err, ErrAborted):
			if !c.Partial() {
				silent = true // draining; no request in progress
				break
			}
			resp = Response{
				Status:     503,
				Body:       []byte("shedding load: draining\n"),
				RetryAfter: srv.opts.RetryAfter,
			}
		case errors.Is(err, ErrTooLarge):
			resp = Response{Status: 413, Body: []byte("request too large\n")}
		case errors.Is(err, ErrBadRequest):
			resp = Response{Status: 400, Body: []byte("malformed request\n")}
		default:
			// Unreadable connection: clean close between requests, or a
			// reset / EOF mid-request — nothing to say either way.
			if c.Partial() || served == 0 {
				srv.m.readErrs.Inc(proc.Self())
			}
			silent = true
		}
		if silent {
			break
		}

		keepAlive := false
		capTick := srv.clock.Now() + 20
		if req != nil {
			keepAlive = err == nil && !req.Close && !srv.opts.DisableKeepAlive && !srv.Draining()
			capTick = req.Deadline + 20
		}
		// A streaming response takes the connection for the rest of its
		// life: responses batched ahead of it flush first (keep-alive —
		// the stream header follows on the same socket), then the chunk
		// pump runs until the stream closes or the client dies.
		var sresp Response
		resps = resps[:0]
		if resp.Stream != nil {
			sresp = resp
		} else {
			resps = append(resps, resp)
		}
		srv.accountResponse(req, resp, arrival, served)
		served++

		// Drain the residual pipelined run: every complete successor
		// already buffered joins this write batch.
		for keepAlive && sresp.Stream == nil {
			more, ok, rerr := c.ReadBuffered(srv.opts.DeadlineTicks)
			if rerr != nil {
				// Poisoned pipeline: the buffered bytes can never become a
				// valid request, so answer once and close the connection.
				bresp := Response{Status: 400, Body: []byte("malformed request\n")}
				if errors.Is(rerr, ErrTooLarge) {
					bresp = Response{Status: 413, Body: []byte("request too large\n")}
				}
				resps = append(resps, bresp)
				srv.accountResponse(nil, bresp, srv.clock.Now(), served)
				served++
				keepAlive = false
				break
			}
			if !ok {
				break
			}
			mresp := srv.handle(more)
			keepAlive = !more.Close && !srv.opts.DisableKeepAlive && !srv.Draining()
			capTick = more.Deadline + 20
			srv.accountResponse(more, mresp, more.Arrival, served)
			served++
			if mresp.Stream != nil {
				sresp = mresp
				break
			}
			resps = append(resps, mresp)
		}

		streaming := sresp.Stream != nil
		werr := c.WriteResponses(resps, capTick, keepAlive || streaming)
		if streaming {
			if werr != nil {
				sresp.Stream.Cancel()
			} else {
				c.StreamResponse(sresp, srv.opts.StreamHeartbeatTicks, srv.opts.DeadlineTicks)
			}
			break
		}
		if werr != nil || !keepAlive {
			break
		}
		arrival = srv.clock.Now()
	}
	p.conn.Close()

	// Last serve-side action: leave the in-flight set under the state
	// lock (ordering every emit above before a /trace snapshot's reads),
	// then free the slot so the dispatcher can admit the next unit.
	srv.finish()
}

// handle runs the handler for one parsed request and applies the
// deadline backstop: a 200 finishing past the deadline becomes the 504
// the client was promised.
func (srv *Server) handle(req *Request) Response {
	resp := srv.dispatchRequest(req)
	if resp.Status == 200 && srv.clock.Now() >= req.Deadline {
		if resp.Stream != nil {
			resp.Stream.Cancel() // the stream response is dropped unwritten
		}
		resp = Response{Status: 504, Body: []byte("deadline exceeded\n")}
	}
	if resp.Status == 504 {
		// Covers both the backstop and handlers that cancelled
		// themselves at a safe point.
		srv.m.expired.Inc(proc.Self())
	}
	return resp
}

// accountResponse emits the per-response metrics, trace event, and
// access-log line for one request of a write batch.  req may be nil
// (read-error responses); fallbackArrival stands in for its arrival.
func (srv *Server) accountResponse(req *Request, resp Response, fallbackArrival int64, served int) {
	method, path, reqArrival := "-", "-", fallbackArrival
	if req != nil {
		method, path, reqArrival = req.Method, req.Path, req.Arrival
	}
	self := proc.Self()
	srv.m.responded.Inc(self)
	srv.m.latencyTicks.Observe(self, srv.clock.Now()-reqArrival)
	srv.emit(srv.evRespond, int64(resp.Status))
	srv.logAccess(resp.Status, reqArrival, method, path)
	if served > 0 {
		srv.m.keepalive.Inc(self)
	}
}

// jobWorker handles one injected request end to end and delivers the
// response to the fabric's completion cell.
func (srv *Server) jobWorker(j *job) {
	req := j.req
	resp := srv.dispatchRequest(req)
	if resp.Status == 200 && srv.clock.Now() >= req.Deadline {
		if resp.Stream != nil {
			resp.Stream.Cancel() // the stream response is dropped unwritten
		}
		resp = Response{Status: 504, Body: []byte("deadline exceeded\n")}
	}
	self := proc.Self()
	if resp.Status == 504 {
		srv.m.expired.Inc(self)
	}
	srv.m.responded.Inc(self)
	srv.m.latencyTicks.Observe(self, srv.clock.Now()-req.Arrival)
	srv.emit(srv.evRespond, int64(resp.Status))
	srv.logAccess(resp.Status, req.Arrival, req.Method, req.Path)
	j.deliver(resp)
	srv.finish()
}

// finish retires one in-flight work unit.
func (srv *Server) finish() {
	srv.m.inflight.Add(proc.Self(), -1)
	srv.state.Lock()
	srv.active--
	srv.state.Unlock()
	srv.slots.Release()
}

// dispatchRequest routes and runs the handler for a parsed request.
func (srv *Server) dispatchRequest(req *Request) Response {
	req.srv = srv // Conn parses without a server; bind for Expired/Park/System
	h := srv.route(req.Path)
	if h == nil {
		return Response{Status: 404, Body: []byte("no handler for " + req.Path + "\n")}
	}
	self := proc.Self()
	srv.m.handled.Inc(self)
	srv.emit(srv.evHandle, req.Arrival)
	return h(req)
}

// logAccess writes one access-log line through mlio's locking policy:
// "shard tick proc status latency method path".  The shard id keeps
// lines attributable when fabric shards share one log stream.
func (srv *Server) logAccess(status int, arrival int64, method, path string) {
	now := srv.clock.Now()
	rec := fmt.Sprintf("%d %d %d %d %d %s %s",
		srv.opts.ShardID, now, proc.Self(), status, now-arrival, method, path)
	srv.logpol.Write(srv.logrt.Open("access"), []byte(rec))
}

// ----------------------------------------------------------------- misc

// isTimeout reports whether err is a network timeout (deadline expiry).
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
