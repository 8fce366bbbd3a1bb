package shard

// The event-multiplexed front: a fixed pool of poller MP threads, each
// owning a netpoll.Poller (epoll on linux) and driving many resumable
// serve.Conn state machines — the paper's thesis applied to connections
// instead of threads.  Where the per-connection-thread front pins an MP
// thread (plus stacks of scratch) to every accepted socket, a poller
// thread multiplexes thousands: an idle keep-alive connection costs only
// its parked muxConn (a trimmed residual buffer and a few clock ticks of
// bookkeeping), so the connection ceiling moves from "threads the front
// can sustain" to "file descriptors the process may hold".
//
// Ownership is strictly partitioned: the acceptor hands each admitted
// socket to one poller (round-robin through a locked inbox, the only
// cross-thread structure here) and from then on that poller alone
// touches the connection — its fd table, free lists, and scratch are
// single-owner, so the hot path takes no locks at all.  Forwarding rides
// the exact same route/push/reply-group machinery as connection threads
// (front.go's forwardBatch/collectBatch); the only difference is that a
// poller never blocks on a reply group — dispatched connections sit on a
// list the poller sweeps between readiness waits, so one stalled shard
// cannot stop every other connection's progress.
//
// The purity rule holds: poller threads are front MP threads
// (threads.Fork), the inbox is a core lock, and all socket I/O is
// raw fd reads/writes through serve's resumable path — no goroutines,
// channels, or runtime netpoller involvement.  A poller's two sleeps
// (readiness wait, reply-poll nap) run under Blocking: no proc held.

import (
	"net"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/netpoll"
	"repro/internal/proc"
	"repro/internal/serve"
)

// muxInbox is the acceptor→poller handoff: the only structure in the
// mux shared across threads, guarded by a FairLock.
type muxInbox struct {
	lock core.Lock
	nc   []net.Conn
}

// frame is one in-flight dispatch batch: the scratch a connection
// thread kept on its stack, made heap state so a connection can park in
// StateDispatched while its batch crosses the shard boundary.  Frames
// are pooled per poller and released the moment the batch's responses
// are staged, so the frame population tracks in-flight batches, not
// connections.
type frame struct {
	*scratch
	reqs    []*serve.Request
	resps   []serve.Response
	badTail serve.Response // 400/413 for a poisoned pipelined successor
	next    *frame         // free list
}

// muxConn is one poller-owned connection: the resumable serve.Conn plus
// the routing, idle, and write-cap bookkeeping its former thread kept in
// locals.  This struct (and the Conn's trimmed buffers) is the entire
// per-idle-connection cost of the multiplexed front.
type muxConn struct {
	c         *serve.Conn
	nc        net.Conn
	fd        int
	chash     uint32 // connection route hash, resolved per batch
	served    int    // responses written on this connection
	idleAt    int64  // front tick the conn last became idle
	wrCap     int64  // write deadline (ticks) for the staged batch
	fr        *frame
	keepAlive bool
	closing   bool // close after the staged write drains
	wantWrite bool // current poller interest includes writability
	queued    bool // already on this pass's ready list

	// Streaming subscriber state: the response's frame source, whether
	// the connection is in a stream's grip, the last tick bytes went out
	// (heartbeat accounting), and list membership for pumpStreams.  A
	// muxConn may be recycled while still on the stream list —
	// inStreamList survives Reset and the next pump pass reconciles it.
	stream       serve.Streamer
	streaming    bool
	streamLast   int64
	inStreamList bool

	next *muxConn // free list
}

// poller is one poller thread's world: its netpoll instance, inbox, fd
// table, and free lists.  Everything except the inbox is single-owner.
type poller struct {
	id    int
	np    *netpoll.Poller
	inbox muxInbox

	conns       []*muxConn // fd-indexed ownership table
	owned       int
	dispatched  []*muxConn // conns parked in StateDispatched
	dispNext    []*muxConn // double buffer for the completion sweep
	ready       []*muxConn
	streams     []*muxConn // conns held by a streaming response
	streamsNext []*muxConn // double buffer for the stream pump's compaction
	chunk       [][]byte   // frame burst scratch for StageChunks
	evs         []netpoll.Event
	scratch     []byte     // shared read block for every owned conn
	take        []net.Conn // inbox drain scratch
	one         [1]serve.Response

	freeConns  *muxConn
	freeFrames *frame
	lastScan   int64
	parkedRep  int64 // conns_parked contribution already reported
}

// newPoller builds one poller thread's world.  The inbox guard comes
// from Fabric.lockFactory — the accept inbox is the mux front's one
// cross-thread lock, so under a connection storm it is where an unfair
// acquisition race would starve one side.
func newPoller(id int, lockf core.LockFactory) (*poller, error) {
	np, err := netpoll.New()
	if err != nil {
		return nil, err
	}
	return &poller{id: id, np: np, inbox: muxInbox{lock: lockf()}}, nil
}

// enqueueConn hands an accepted socket to poller p (called by the
// acceptor, the one producer).
func (p *poller) enqueueConn(nc net.Conn) {
	p.inbox.lock.Lock()
	p.inbox.nc = append(p.inbox.nc, nc)
	p.inbox.lock.Unlock()
}

// rawFD borrows a connection's file descriptor.  Go's accepted sockets
// are already non-blocking; Control only guarantees validity during the
// callback, but the fd cannot change for the socket's lifetime and the
// poller closes the conn itself, so caching it is sound.  (net.TCPConn's
// File() is NOT usable here: it duplicates the fd and flips it to
// blocking.)
func rawFD(nc net.Conn) (int, bool) {
	sc, ok := nc.(syscall.Conn)
	if !ok {
		return -1, false
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return -1, false
	}
	fd := -1
	rc.Control(func(f uintptr) { fd = int(f) })
	return fd, fd >= 0
}

// pollerMain is one poller thread's loop: adopt new connections, wait
// for readiness, resume ready machines, collect completed dispatches,
// and periodically sweep deadlines.  It exits once the fabric is
// draining, the acceptor can enqueue no more, and every owned
// connection has closed.
func (fab *Fabric) pollerMain(p *poller) {
	p.evs = make([]netpoll.Event, 256)
	p.scratch = make([]byte, 32<<10)
	const pollMS = 1 // a period, not an event: reply groups complete outside this epoll set
	idleRounds := 0
	n := 0
	// A raw blocking syscall keeps its P until sysmon retakes it: let the
	// runnable goroutines go first, or on a one-P host a request in
	// flight stalls behind every idle poller's millisecond.
	wait := func() { runtime.Gosched(); n, _ = p.np.Wait(p.evs, pollMS) }
	nap := func() { time.Sleep(fab.opts.Tick / 4) }
	for {
		// Adopt: drain the inbox under its lock, register outside it.
		p.inbox.lock.Lock()
		p.take = append(p.take[:0], p.inbox.nc...)
		for i := range p.inbox.nc {
			p.inbox.nc[i] = nil
		}
		p.inbox.nc = p.inbox.nc[:0]
		p.inbox.lock.Unlock()
		for i, nc := range p.take {
			fab.adoptConn(p, nc)
			p.take[i] = nil
		}

		// Wait for readiness.  With dispatched batches pending the wait
		// must not block — their completion comes from backend procs, not
		// from this epoll set.
		if len(p.dispatched) > 0 {
			n, _ = p.np.Wait(p.evs, 0)
		} else {
			fab.frontSys.Blocking(wait)
		}
		self := proc.Self() // after the wait: Blocking may resume on another proc
		if n > 0 {
			fab.m.pollWakeups.Inc(self)
		}

		// Classify events into the ready list.  Dispatched conns are
		// skipped (level-triggered epoll will re-report); writing conns
		// resume only for writability or a dead peer.
		p.ready = p.ready[:0]
		for i := 0; i < n; i++ {
			ev := p.evs[i]
			if ev.FD < 0 || ev.FD >= len(p.conns) {
				continue
			}
			mc := p.conns[ev.FD]
			if mc == nil || mc.queued {
				continue
			}
			switch mc.c.State() {
			case serve.StateDispatched:
				continue
			case serve.StateStreaming:
				// A streaming conn never joins the ready list — the stream
				// pump owns its writes.  Events only matter as liveness: a
				// dead peer closes it, client bytes are discarded.
				if ev.Closed {
					fab.closeMuxConn(p, mc)
				} else if ev.Readable && mc.c.ProbeDiscard(p.scratch) != nil {
					fab.closeMuxConn(p, mc)
				}
				continue
			case serve.StateWriting:
				if !ev.Writable && !ev.Closed {
					continue
				}
			}
			mc.queued = true
			p.ready = append(p.ready, mc)
		}
		progress := len(p.ready) > 0
		if progress {
			fab.m.resumeBatch.Observe(self, int64(len(p.ready)))
		}
		for i, mc := range p.ready {
			mc.queued = false
			fab.resumeConn(p, mc)
			p.ready[i] = nil
		}

		// Completed dispatches: poll each parked batch's reply group.
		// Double-buffered because resuming a finished connection can
		// dispatch its next pipelined batch, appending to p.dispatched.
		work := p.dispatched
		p.dispatched = p.dispNext[:0]
		for i, mc := range work {
			work[i] = nil
			if mc.fr.grp.done() {
				progress = true
				fab.finishDispatch(p, mc)
				fab.resumeConn(p, mc)
			} else {
				p.dispatched = append(p.dispatched, mc)
			}
		}
		p.dispNext = work[:0]

		// Stream pump: advance every streaming subscriber whose staged
		// bytes have drained — pull a frame burst, stage it as chunks,
		// drive the write inline.
		now := fab.clock.Now()
		if fab.pumpStreams(p, now) {
			progress = true
		}

		// Deadline sweep: cheap and periodic.  Under drain it runs every
		// pass — parked connections get no events, so the sweep is what
		// pushes them through their abort/close paths.
		draining := fab.Draining()
		if draining || now-p.lastScan >= fab.opts.IdleScanTicks {
			p.lastScan = now
			fab.sweepConns(p, now)
		}

		// conns_parked gauge: owned connections not in a dispatch.
		parked := int64(p.owned - len(p.dispatched))
		if parked != p.parkedRep {
			fab.m.connsParked.Add(self, parked-p.parkedRep)
			p.parkedRep = parked
		}

		if draining && p.owned == 0 {
			fab.state.Lock()
			accDone := fab.acceptorDone
			fab.state.Unlock()
			p.inbox.lock.Lock()
			empty := len(p.inbox.nc) == 0
			p.inbox.lock.Unlock()
			if accDone && empty {
				if p.parkedRep != 0 {
					fab.m.connsParked.Add(self, -p.parkedRep)
					p.parkedRep = 0
				}
				p.np.Close()
				return
			}
		}

		fab.frontSys.CheckPreempt()
		// Reply-wait discipline: while dispatches are pending, busy passes
		// (Wait timeout 0) poll the groups; after replySpin fruitless
		// passes, nap a fraction of a tick so a saturated shard doesn't
		// cost a spinning proc.
		if len(p.dispatched) > 0 && !progress {
			idleRounds++
			if idleRounds > replySpin {
				fab.frontSys.Blocking(nap)
			}
		} else {
			idleRounds = 0
		}
		fab.frontSys.Yield()
	}
}

// adoptConn takes ownership of an accepted socket: bind (or recycle) a
// muxConn, cache the raw fd, and register read interest.  The acceptor
// already counted the connection; a registration failure uncounts it.
func (fab *Fabric) adoptConn(p *poller, nc net.Conn) {
	fd, ok := rawFD(nc)
	if ok {
		ok = p.np.Add(fd, false) == nil
	}
	if !ok {
		fab.releaseConn(nc)
		fab.m.acceptErrs.Inc(proc.Self())
		return
	}
	mc := p.freeConns
	if mc != nil {
		p.freeConns = mc.next
		mc.next = nil
		mc.c.Reset(nc, fd)
	} else {
		mc = &muxConn{c: serve.NewConn(nc, fab.ccfg)}
		mc.c.SetFD(fd)
	}
	mc.nc = nc
	mc.fd = fd
	mc.chash = fnv1a(nc.RemoteAddr().String())
	mc.served = 0
	mc.idleAt = fab.clock.Now()
	mc.wrCap = 0
	mc.keepAlive = false
	mc.closing = false
	mc.wantWrite = false
	mc.queued = false
	mc.stream = nil
	mc.streaming = false
	mc.streamLast = 0 // inStreamList stays: the pump pass reconciles it
	for fd >= len(p.conns) {
		p.conns = append(p.conns, nil)
	}
	p.conns[fd] = mc
	p.owned++
}

// resumeConn drives one connection's state machine until it parks
// again: read requests while bytes flow, dispatch full batches, drain
// staged writes, loop straight back to reading when pipelined residue
// is already buffered.
func (fab *Fabric) resumeConn(p *poller, mc *muxConn) {
	for {
		switch mc.c.State() {
		case serve.StateDispatched:
			return // completion sweep owns this transition
		case serve.StateStreaming:
			return // the stream pump owns this transition
		case serve.StateWriting:
			if !fab.muxWrite(p, mc) {
				return
			}
		default: // StateIdle, StateReading
			if !fab.muxRead(p, mc) {
				return
			}
		}
	}
}

// muxRead advances the read phase: poll for a parsed request, gather
// every fully-buffered pipelined successor, and forward the batch.  It
// returns true when the caller should keep driving the machine (a batch
// finished inline, or an error response was staged) and false when the
// connection parked or closed.
func (fab *Fabric) muxRead(p *poller, mc *muxConn) bool {
	headBudget := fab.opts.DeadlineTicks
	if mc.served > 0 {
		headBudget = fab.opts.IdleTicks
	}
	req, err := mc.c.PollRead(p.scratch, mc.idleAt+headBudget, fab.opts.DeadlineTicks)
	if err != nil {
		if err == serve.ErrWouldBlock {
			return false
		}
		return fab.muxReadErr(p, mc, err)
	}
	fr := p.getFrame(fab.opts.BatchMax)
	mc.fr = fr
	// A poisoned pipeline's badTail is answered, and the connection
	// closed, after the batch's write — exactly as a connection thread
	// would.
	fr.reqs, fr.badTail = mc.c.Gather(req, fr.reqs, fab.opts.BatchMax, fab.opts.DeadlineTicks)
	last := fr.reqs[len(fr.reqs)-1]
	mc.keepAlive = fr.badTail.Status == 0 && !last.Close && !fab.Draining()
	mc.wrCap = last.Deadline + 20
	done := fab.forwardBatch(fr.reqs, mc.chash, fr.scratch)
	mc.c.SetState(serve.StateDispatched)
	if done { // all answered inline (/fabricz, ring-full sheds) or already delivered
		fab.finishDispatch(p, mc)
		return true
	}
	p.dispatched = append(p.dispatched, mc)
	return false
}

// muxReadErr is serve.ReadErrResponse in resumable form: silent closes
// happen now; answered errors stage their response and let the write
// phase (and closing flag) finish the job.
func (fab *Fabric) muxReadErr(p *poller, mc *muxConn, err error) bool {
	resp, ok := serve.ReadErrResponse(mc.c, mc.served, err)
	if !ok {
		fab.closeMuxConn(p, mc)
		return false
	}
	mc.closing = true
	mc.wrCap = fab.clock.Now() + 20
	p.one[0] = resp
	mc.c.StageResponses(p.one[:], false)
	p.one[0] = serve.Response{}
	return true
}

// finishDispatch collects a completed batch's responses in request
// order, stages them on the connection, and releases the frame — the
// frame's lifetime is exactly forward→stage, so frames track in-flight
// batches, not connections.
func (fab *Fabric) finishDispatch(p *poller, mc *muxConn) {
	fr := mc.fr
	resps := fab.collectBatch(fr.reqs, fr.pend, fr.resps[:0])
	if fr.badTail.Status != 0 {
		resps = append(resps, fr.badTail)
		mc.closing = true
	}
	si := serve.FirstStream(resps)
	switch {
	case si < 0:
		mc.c.StageResponses(resps, mc.keepAlive)
	case mc.closing: // poisoned batch: never stream, never leak
		resps[si].Stream.Cancel()
		mc.c.StageResponses(resps, mc.keepAlive)
	default:
		fab.startMuxStream(p, mc, resps, si)
	}
	mc.served += len(resps)
	fr.resps = resps // keep the (possibly grown) backing array with the frame
	mc.fr = nil
	p.putFrame(fr)
}

// muxStreamBatch caps frames staged per stream per pump pass, bounding
// the staged bytes a parked subscriber can pin (serve's own flush bound
// is the same figure).
const muxStreamBatch = 32

// muxHB is the heartbeat frame: StageChunks renders it as the same
// 1-byte chunk the blocking face writes.
var muxHB = [][]byte{[]byte("\n")}

// startMuxStream converts a completed dispatch carrying a streaming
// response into a parked subscriber: responses ahead of the stream plus
// the chunked header are staged in one write, the connection joins the
// poller's stream list, and keep-alive ends — a stream takes the
// connection to its close.  (serve.FirstStream already cancelled the
// streams pipelined behind it.)
func (fab *Fabric) startMuxStream(p *poller, mc *muxConn, resps []serve.Response, si int) {
	sresp := resps[si]
	mc.c.StageStream(resps[:si], sresp)
	mc.stream = sresp.Stream
	mc.streaming = true
	mc.streamLast = fab.clock.Now()
	mc.keepAlive = false
	mc.wrCap = mc.streamLast + fab.opts.DeadlineTicks
	fab.m.streamConns.Inc(proc.Self())
	if !mc.inStreamList {
		mc.inStreamList = true
		p.streams = append(p.streams, mc)
	}
}

// pumpStreams advances every streaming connection whose staged bytes
// have drained (machine parked in StateStreaming): pull a bounded frame
// burst, stage it as chunks — the terminator too, when the source
// closed — and drive the write inline.  Quiet streams past the
// heartbeat budget get the 1-byte chunk that doubles as dead-peer
// detection.  The list compacts as connections leave streaming (closed
// peers, recycled muxConns); membership is reconciled here and nowhere
// else.
func (fab *Fabric) pumpStreams(p *poller, now int64) bool {
	if len(p.streams) == 0 {
		return false
	}
	self := proc.Self()
	progress := false
	keep := p.streamsNext[:0]
	for i, mc := range p.streams {
		p.streams[i] = nil
		if !mc.streaming {
			mc.inStreamList = false
			continue
		}
		keep = append(keep, mc)
		if mc.c.State() != serve.StateStreaming {
			continue // staged burst still draining; muxWrite re-parks it here
		}
		p.chunk = p.chunk[:0]
		final := false
		for len(p.chunk) < muxStreamBatch {
			f, ok, open := mc.stream.Pull()
			if ok {
				p.chunk = append(p.chunk, f)
				continue
			}
			final = !open
			break
		}
		switch {
		case len(p.chunk) > 0 || final:
			progress = true
			if len(p.chunk) > 0 {
				fab.m.streamFrames.Add(self, int64(len(p.chunk)))
			}
			mc.c.StageChunks(p.chunk, final)
			if final {
				mc.closing = true
				mc.stream = nil // fully drained; nothing left to cancel
			}
			mc.streamLast = now
			mc.wrCap = now + fab.opts.DeadlineTicks
			fab.muxWrite(p, mc)
		case fab.opts.HeartbeatTicks > 0 && now-mc.streamLast >= fab.opts.HeartbeatTicks:
			mc.c.StageChunks(muxHB, false)
			mc.streamLast = now
			mc.wrCap = now + fab.opts.DeadlineTicks
			fab.muxWrite(p, mc)
		}
	}
	for i := range p.chunk {
		p.chunk[i] = nil
	}
	p.streamsNext = p.streams[:0]
	p.streams = keep
	return progress
}

// muxWrite drains the staged write.  True means "keep driving" — the
// batch flushed and pipelined residue is already buffered; false means
// the connection parked on writability, went idle, or closed.
func (fab *Fabric) muxWrite(p *poller, mc *muxConn) bool {
	done, err := mc.c.PollWrite()
	if err != nil {
		fab.closeMuxConn(p, mc)
		return false
	}
	if !done {
		fab.setWriteInterest(p, mc, true)
		return false
	}
	fab.setWriteInterest(p, mc, false)
	if mc.streaming && !mc.closing {
		// The staged burst drained; the machine parks in StateStreaming
		// until the pump stages the next one.
		mc.c.SetState(serve.StateStreaming)
		return false
	}
	if mc.closing || !mc.keepAlive {
		fab.closeMuxConn(p, mc)
		return false
	}
	mc.c.ParkIdle()
	mc.idleAt = fab.clock.Now()
	// A pipelined successor already buffered generates no epoll event;
	// loop straight back into the read phase.
	return mc.c.Partial()
}

// setWriteInterest toggles EPOLLOUT, skipping the syscall when the
// interest already matches — the hot path (writes that never block)
// never touches epoll_ctl.
func (fab *Fabric) setWriteInterest(p *poller, mc *muxConn, on bool) {
	if mc.wantWrite == on {
		return
	}
	mc.wantWrite = on
	p.np.Modify(mc.fd, on)
}

// sweepConns walks the fd table pushing expired connections through the
// state machine: an idle or mid-read conn past its deadline resumes
// into PollRead, which surfaces ErrDeadline (or ErrAborted under drain)
// and runs the normal error path; a staged write past its cap closes.
// The walk is O(owned) and runs every IdleScanTicks (every pass under
// drain), so its cost amortizes to noise.
func (fab *Fabric) sweepConns(p *poller, now int64) {
	draining := fab.Draining()
	for _, mc := range p.conns {
		if mc == nil || mc.queued {
			continue
		}
		switch mc.c.State() {
		case serve.StateDispatched:
			continue // the backend always answers; completion sweep finishes it
		case serve.StateStreaming:
			continue // liveness is the heartbeat's job; drain closes the source
		case serve.StateWriting:
			if now >= mc.wrCap {
				fab.closeMuxConn(p, mc)
			}
			continue
		}
		expired := false
		if dl, started := mc.c.ReadDeadline(); started {
			expired = now >= dl
		} else {
			headBudget := fab.opts.DeadlineTicks
			if mc.served > 0 {
				headBudget = fab.opts.IdleTicks
			}
			expired = now >= mc.idleAt+headBudget
		}
		if expired || draining {
			fab.resumeConn(p, mc)
		}
	}
}

// closeMuxConn releases a connection: deregister before close (never
// rely on close's implicit epoll removal), uncount, and recycle the
// muxConn.  Callers guarantee the conn is not in StateDispatched — a
// dispatched conn's cells are live backend targets and must complete
// before the muxConn can be reused.
func (fab *Fabric) closeMuxConn(p *poller, mc *muxConn) {
	p.np.Remove(mc.fd)
	fab.releaseConn(mc.nc)
	if mc.fd >= 0 && mc.fd < len(p.conns) {
		p.conns[mc.fd] = nil
	}
	p.owned--
	if mc.fr != nil { // staged-error paths never hold one; belt and braces
		p.putFrame(mc.fr)
		mc.fr = nil
	}
	if mc.streaming {
		if mc.stream != nil {
			mc.stream.Cancel()
			mc.stream = nil
		}
		mc.streaming = false // pumpStreams drops the list entry next pass
		fab.m.streamConns.Add(proc.Self(), -1)
	}
	mc.c.Reset(nil, -1)
	mc.nc = nil
	mc.fd = -1
	mc.next = p.freeConns
	p.freeConns = mc
}

// getFrame takes a pooled dispatch frame or builds one sized to the
// batch bound.
func (p *poller) getFrame(batchMax int) *frame {
	if fr := p.freeFrames; fr != nil {
		p.freeFrames = fr.next
		fr.next = nil
		return fr
	}
	return &frame{
		scratch: newScratch(batchMax),
		reqs:    make([]*serve.Request, 0, batchMax),
		resps:   make([]serve.Response, 0, batchMax+1),
	}
}

// putFrame clears the frame's references (request pointers, delivered
// responses, reply cells) and returns it to the free list.
func (p *poller) putFrame(fr *frame) {
	fr.reqs = fr.reqs[:0]
	for i := range fr.cells {
		fr.cells[i] = reply{}
	}
	for i := range fr.resps {
		fr.resps[i] = serve.Response{}
	}
	fr.resps = fr.resps[:0]
	fr.badTail = serve.Response{}
	fr.next = p.freeFrames
	p.freeFrames = fr
}
