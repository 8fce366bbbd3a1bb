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
//	  - The acceptor and every connection thread wait for the network in
//	    the kernel with their proc released (threads.System.Blocking), so
//	    a waiter costs the scheduler nothing; drain wakes them directly.
//	  - Admission control is a bounded accept queue plus a bounded
//	    in-flight slot semaphore; when the queue is full the acceptor sheds
//	    the connection immediately with 503 + Retry-After instead of
//	    queueing unboundedly.
//	  - Connections are persistent (HTTP/1.1 keep-alive, see conn.go): a
//	    worker owns its connection for the connection's lifetime, running
//	    the keep-alive loop the fabric's front shares (loop.go), and the
//	    in-flight slot bounds concurrently-served connections.
//	  - Per-request deadlines ride on the CML clock (package cml): ticks
//	    are pumped from wall time by a dedicated thread and are timeouts,
//	    never latency — a socket wait carries its tick budget as the
//	    socket deadline, and handlers cancel at safe points when the
//	    deadline passes (504).
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
	"net"
	"strconv"
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
	// Tick is the wall duration of one clock tick (default 1ms).
	Tick time.Duration
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

// AccessLogBytes bounds the in-memory access log (/log, AccessLog) to its
// most recent lines, so memory does not grow with requests answered.
const AccessLogBytes = 1 << 20

// NamedRegistry labels a metrics registry for /metrics rendering.
type NamedRegistry struct {
	Name string
	Reg  *metrics.Registry
}

func (o *Options) fill() {
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
		var err error
		if tln, err = Listen(opts.Addr); err != nil {
			return nil, err
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
		srv.logrt = mlio.NewBounded(AccessLogBytes)
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
	reg.Counter("serve.read_parks") // reads 0 now; the bench harness parses the name
	srv.ccfg = ConnConfig{
		Clock:        srv.clock,
		Park:         srv.park,
		Blocking:     sys.Blocking,
		Tick:         srv.opts.Tick,
		Pool:         srv.pool,
		OnWriteBatch: func(n int) { srv.m.writeBatch.Observe(proc.Self(), int64(n)) },
		Aborted:      srv.Draining,
		Conns:        NewConnSet(),
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
	// The pump exits last, once drain has completed and every other
	// serving thread is gone.
	srv.sys.Fork(func() {
		Pump(srv.sys, srv.clock, srv.opts.Tick, func() bool {
			srv.state.Lock()
			defer srv.state.Unlock()
			return srv.draining && srv.acceptorDone && srv.dispatcherDone &&
				srv.active == 0 && srv.holds == 0
		})
	})
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
	// The acceptor and idle keep-alive readers are in the kernel: wake them.
	InterruptAccept(srv.ln)
	srv.ccfg.Conns.Interrupt()
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

// -------------------------------------------------------------- acceptor

// acceptor runs the cooperative poll-accept loop until drain, passing
// the trace-snapshot barrier at every iteration, then poisons the
// dispatcher.
func (srv *Server) acceptor() {
	AcceptLoop(srv.sys, srv.ln, srv.m.acceptErrs, srv.acceptorStop, srv.admit)
	srv.emit(srv.evDrain, 0)
	srv.state.Lock()
	srv.acceptorDone = true
	srv.state.Unlock()
	// Poison: wake the dispatcher so it can observe drain and exit.
	srv.items.Release()
}

// admit enqueues an accepted connection for dispatch, shedding it when
// the server is draining or the accept queue is full.
func (srv *Server) admit(conn net.Conn) {
	self := proc.Self()
	now := srv.clock.Now()
	srv.m.accepted.Inc(self)
	srv.emit(srv.evAccept, now)

	srv.state.Lock()
	if srv.draining {
		srv.state.Unlock()
		srv.shed(pending{conn: conn, arrival: now}, srv.m.shedDrain, "draining")
		return
	}
	if srv.acceptQ.Len() >= srv.opts.QueueDepth {
		srv.state.Unlock()
		srv.shed(pending{conn: conn, arrival: now}, srv.m.shedQueue, "accept queue full")
		return
	}
	srv.acceptQ.Enq(pending{conn: conn, arrival: now})
	srv.state.Unlock()
	srv.m.queued.Inc(self)
	srv.m.queueDepth.Inc(self)
	srv.emit(srv.evEnqueue, now)
	srv.items.Release()
}

// acceptorStop is the accept loop's stop predicate: drain.  It first
// parks the acceptor while a /trace snapshot is in progress; the
// state-lock handoff here is also the happens-before edge that orders
// the acceptor's last ring emit before the snapshot's reads.
func (srv *Server) acceptorStop() bool {
	srv.state.Lock()
	for srv.tracePause {
		srv.acceptorIdle = true
		srv.state.Unlock()
		srv.park(1)
		srv.state.Lock()
	}
	srv.acceptorIdle = false
	stop := srv.draining
	srv.state.Unlock()
	return stop
}

// shed refuses an admitted-or-arriving unit with 503 + Retry-After.
func (srv *Server) shed(p pending, counter *metrics.Counter, why string) {
	counter.Inc(proc.Self())
	srv.emit(srv.evShed, p.arrival)
	srv.refuse(p, ShedResponse(why))
}

// refuse answers a unit that will never be dispatched — through its
// completion cell if injected, else on its connection, then closed.
func (srv *Server) refuse(p pending, resp Response) {
	if p.job != nil {
		p.job.deliver(resp)
	} else {
		ShedConn(p.conn, srv.ccfg, resp)
	}
	srv.logAccess(resp.Status, p.arrival, "-", "-")
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
				srv.shed(p, srv.m.shedDrain, "draining")
				continue
			}
			deadline := p.arrival + srv.opts.DeadlineTicks
			if p.job != nil {
				deadline = p.job.req.Deadline
			}
			if now >= deadline {
				// Expired while queued: answer 504 without consuming a slot.
				srv.m.expired.Inc(self)
				srv.refuse(p, Response{Status: 504, Body: []byte("deadline exceeded in accept queue\n")})
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

// ---------------------------------------------------------------- worker

// worker serves one admitted unit, then returns its in-flight slot.  An
// injected request is answered and delivered to the fabric's completion
// cell.  A direct connection runs the keep-alive loop (ConnLoop.Serve)
// for its whole lifetime with an inline dispatch: each request of a
// gathered batch is handled and accounted on this thread, in order.
func (srv *Server) worker(p pending) {
	if p.job != nil {
		p.job.deliver(srv.answer(p.job.req, 0))
		srv.finish()
		return
	}
	served := 0 // responses accounted on this connection
	loop := ConnLoop{
		DeadlineTicks: srv.opts.DeadlineTicks,
		IdleTicks:     srv.opts.KeepAliveIdleTicks,
		BatchMax:      srv.opts.DispatchBatch,
		Draining:      srv.Draining,
		Dispatch: func(reqs []*Request, resps []Response) []Response {
			for _, req := range reqs {
				resp := srv.answer(req, served)
				served++
				resps = append(resps, resp)
				if resp.Stream != nil {
					break // a stream takes the connection: handle nothing behind it
				}
			}
			// No yield: the read before and the write after this batch each
			// hand the proc back, so a full pipeline starves nobody.
			return resps
		},
		Stream: func(c *Conn, resp Response) {
			c.StreamResponse(resp, srv.opts.StreamHeartbeatTicks, srv.opts.DeadlineTicks)
		},
		Answered: func(resp Response, since int64) {
			if resp.Status == 504 {
				srv.m.expired.Inc(proc.Self())
			}
			srv.accountResponse(nil, resp, since, served)
			served++
		},
	}
	if loop.Serve(NewConn(p.conn, srv.ccfg), p.arrival) != nil {
		// Reset or EOF mid-request or before any: nobody to tell.
		srv.m.readErrs.Inc(proc.Self())
	}
	p.conn.Close()

	// Last serve-side action: leave the in-flight set under the state
	// lock (ordering every emit above before a /trace snapshot's reads),
	// then free the slot so the dispatcher can admit the next unit.
	srv.finish()
}

// answer runs the handler for one parsed request, applies the deadline
// backstop — a 200 finishing past the deadline becomes the 504 the
// client was promised — and accounts the response; served is how many
// responses its connection was sent before this one.
func (srv *Server) answer(req *Request, served int) Response {
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
	srv.accountResponse(req, resp, req.Arrival, served)
	return resp
}

// accountResponse emits the per-response metrics, trace event, and
// access-log line for one response.  req may be nil (the loop's own
// read-error answers); fallbackArrival stands in for its arrival.
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
// lines attributable when fabric shards share one log stream.  The
// record is built in the calling proc's pooled buffer: one line per
// response is no place for fmt.
func (srv *Server) logAccess(status int, arrival int64, method, path string) {
	now := srv.clock.Now()
	self := proc.Self()
	rb := srv.pool.get(self)
	// Writing the record back is what leaves its capacity with the buffer.
	rb.b.Write(appendAccessRecord(rb.b.AvailableBuffer(),
		srv.opts.ShardID, now, self, status, now-arrival, method, path))
	srv.logpol.Write(srv.logrt.Open("access"), rb.b.Bytes())
	srv.pool.put(self, rb)
}

// appendAccessRecord appends one access-log record to dst.
func appendAccessRecord(dst []byte, shard int, now int64, self, status int, latency int64, method, path string) []byte {
	for _, n := range [...]int64{int64(shard), now, int64(self), int64(status), latency} {
		dst = append(strconv.AppendInt(dst, n, 10), ' ')
	}
	dst = append(append(dst, method...), ' ')
	return append(dst, path...)
}
