package shard

// The front world: the fabric's own MP threads.  frontMain is the root
// thread of the front system; it forks the clock pump, the rebalancer,
// and the acceptor, then becomes the drain supervisor.  The acceptor
// forks one connection thread per admitted client; a connection thread
// owns its socket for the connection's keep-alive lifetime, reading
// pipelined requests through serve.Conn and forwarding each to its
// routed shard.

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/metrics"
	"repro/internal/proc"
	"repro/internal/pubsub"
	"repro/internal/serve"
)

func (fab *Fabric) frontMain() {
	fab.frontSys.Fork(func() { fab.pump() })
	if fab.opts.RebalanceTicks > 0 || fab.Elastic() {
		fab.frontSys.Fork(func() { fab.policy() })
	} else {
		fab.state.Lock()
		fab.rebalDone = true
		fab.state.Unlock()
	}
	for _, p := range fab.pollers {
		p := p
		fab.frontSys.Fork(func() { fab.pollerMain(p) })
	}
	fab.frontSys.Fork(func() { fab.acceptor() })
	fab.supervise()
}

// pump advances the front clock from wall time, exactly as the serve
// pump does; every front park (reply waits, supervisor, rebalancer)
// wakes through it.  It exits last, once the supervisor has drained the
// backends and the rebalancer has stopped.
func (fab *Fabric) pump() {
	start := time.Now()
	var emitted int64
	for {
		target := int64(time.Since(start) / fab.opts.Tick)
		if d := target - emitted; d > 0 {
			fab.clock.Advance(fab.frontSys, d)
			emitted = target
		}
		fab.state.Lock()
		done := fab.cascadeDone && fab.rebalDone
		fab.state.Unlock()
		if done {
			return
		}
		fab.frontSys.CheckPreempt()
		time.Sleep(fab.opts.Tick / 4)
		fab.frontSys.Yield()
	}
}

// supervise is the drain cascade's ordering point: it waits (parking on
// the front clock) until the fabric is draining, the acceptor has
// stopped, and the last connection thread has closed — at which moment
// every forwarded request has been answered and every ring is empty —
// and only then drains the backends.  Zero in-flight requests dropped,
// by construction.
func (fab *Fabric) supervise() {
	for {
		fab.state.Lock()
		ready := fab.draining && fab.acceptorDone && fab.activeConns == 0
		fab.state.Unlock()
		if ready {
			break
		}
		fab.park(1)
	}
	fab.emit(fab.evDrain, 0)
	fab.state.Lock()
	bs := append([]*backend(nil), fab.backends...)
	fab.state.Unlock()
	for _, b := range bs {
		b.srv.Drain() // idempotent: released members are already drained
	}
	// Shrink the front's own allowance too: the paper's drain discipline.
	fab.frontPl.SetLimit(1)
	fab.state.Lock()
	fab.cascadeDone = true
	fab.state.Unlock()
}

// acceptor admits connections with the cooperative poll-accept loop and
// forks a connection thread per client, shedding with 503 when the
// front's connection bound is reached.
func (fab *Fabric) acceptor() {
	nextPoller := 0
	for {
		fab.state.Lock()
		stop := fab.draining
		fab.state.Unlock()
		if stop {
			break
		}
		fab.ln.SetDeadline(time.Now().Add(fab.opts.PollWindow))
		nc, err := fab.ln.Accept()
		if err != nil {
			if isTimeout(err) {
				fab.frontSys.CheckPreempt()
				fab.frontSys.Yield()
				continue
			}
			fab.m.acceptErrs.Inc(proc.Self())
			fab.frontSys.Yield()
			continue
		}
		self := proc.Self()
		fab.m.accepted.Inc(self)
		fab.emit(fab.evAccept, fab.clock.Now())

		fab.state.Lock()
		if fab.draining || fab.activeConns >= fab.opts.MaxConns {
			draining := fab.draining
			fab.state.Unlock()
			fab.shedConn(nc, draining)
			if draining {
				break
			}
			continue
		}
		fab.activeConns++
		fab.state.Unlock()
		fab.m.conns.Inc(self)
		if len(fab.pollers) > 0 {
			// Multiplexed front: hand the socket to the next poller
			// round-robin instead of forking a connection thread.
			fab.pollers[nextPoller%len(fab.pollers)].enqueueConn(nc)
			nextPoller++
			continue
		}
		fab.frontSys.Fork(func() { fab.connThread(nc) })
	}
	fab.ln.Close()
	fab.state.Lock()
	fab.acceptorDone = true
	fab.state.Unlock()
}

// shedConn refuses a connection at the front with 503 + Retry-After.
func (fab *Fabric) shedConn(nc net.Conn, draining bool) {
	fab.m.shedConns.Inc(proc.Self())
	why := "front connection limit"
	if draining {
		why = "draining"
	}
	c := serve.NewConn(nc, fab.ccfg)
	c.WriteResponse(serve.Response{
		Status:     503,
		Body:       []byte("shedding load: " + why + "\n"),
		RetryAfter: fab.opts.RetryAfter,
	}, fab.clock.Now()+20, false)
	nc.Close()
}

// connThread serves one client connection for its keep-alive lifetime:
// read a head request, drain every fully-buffered pipelined successor
// behind it, forward the whole batch shard-by-shard as multi-pushes,
// park once until the batch's reply group completes, then write the
// whole run of responses with one coalesced (or vectored) socket write.
func (fab *Fabric) connThread(nc net.Conn) {
	c := serve.NewConn(nc, fab.ccfg)
	// The connection's route hash is fixed; the member it resolves to is
	// looked up per batch against the current membership, so an elastic
	// fabric re-spreads long-lived connections as shards come and go.
	chash := fnv1a(nc.RemoteAddr().String())
	served := 0
	reqs := make([]*serve.Request, 0, fab.opts.BatchMax)
	resps := make([]serve.Response, 0, fab.opts.BatchMax)
	pend := make([]pendingReply, fab.opts.BatchMax)
	jbuf := make([]job, fab.opts.BatchMax)
	cells := make([]reply, fab.opts.BatchMax)
	grp := &replyGroup{}
	sp := newSpinState(replySpin)
	if fab.opts.FairLocks {
		sp.min = sp.max // fixed budget: the memoryless fair wait
	}
	for {
		headBudget := fab.opts.DeadlineTicks
		if served > 0 {
			headBudget = fab.opts.IdleTicks
		}
		req, err := c.ReadRequest(fab.clock.Now()+headBudget, fab.opts.DeadlineTicks)
		if err != nil {
			if resp, ok := fab.readErrResponse(c, served, err); ok {
				c.WriteResponse(resp, fab.clock.Now()+20, false)
			}
			break
		}
		var badTail serve.Response
		reqs, badTail = fab.gatherBatch(c, req, reqs)
		// Snapshot the write cap before dispatch: Submit rebases
		// req.Deadline onto the owning shard's clock (independent of
		// the front clock, and starting at zero for a shard acquired
		// at runtime), so after the batch returns the request objects
		// no longer carry front-domain ticks.
		last := reqs[len(reqs)-1]
		capTick := last.Deadline + 20
		resps = fab.dispatchBatch(reqs, chash, pend, jbuf, cells, grp, &sp, resps[:0])
		if si := streamIndex(resps); si >= 0 {
			fab.streamConn(c, resps, si, capTick)
			break
		}
		poisoned := badTail.Status != 0
		if poisoned {
			resps = append(resps, badTail)
		}
		keepAlive := !poisoned && !last.Close && !fab.Draining()
		werr := c.WriteResponses(resps, capTick, keepAlive)
		served += len(resps)
		if werr != nil || !keepAlive {
			break
		}
	}
	nc.Close()
	fab.m.conns.Add(proc.Self(), -1)
	fab.state.Lock()
	fab.activeConns--
	fab.state.Unlock()
}

// gatherBatch collects a dispatch batch behind head into reqs: the
// blocking read cost is paid, so everything the client pipelined behind
// it is already buffered and parses for free, up to BatchMax.  A Close
// request ends the batch — nothing after it will be answered.  A
// poisoned pipeline (buffered bytes that can never become a valid
// request) ends it too, with badTail set (Status != 0): the front
// answers the malformed successor after the batch and closes instead of
// re-parsing the same garbage forever.
func (fab *Fabric) gatherBatch(c *serve.Conn, head *serve.Request,
	reqs []*serve.Request) (_ []*serve.Request, badTail serve.Response) {
	reqs = append(reqs[:0], head)
	for len(reqs) < fab.opts.BatchMax && !reqs[len(reqs)-1].Close {
		nxt, ok, err := c.ReadBuffered(fab.opts.DeadlineTicks)
		if err != nil {
			return reqs, malformedResponse(err)
		}
		if !ok {
			break
		}
		reqs = append(reqs, nxt)
	}
	return reqs, serve.Response{}
}

// malformedResponse answers bytes that cannot parse as a request.
func malformedResponse(err error) serve.Response {
	if errors.Is(err, serve.ErrTooLarge) {
		return serve.Response{Status: 413, Body: []byte("request too large\n")}
	}
	return serve.Response{Status: 400, Body: []byte("malformed request\n")}
}

// readErrResponse is the fronts' taxonomy for a failed head read: the
// response the client is owed, or ok false for a silent close — an idle
// keep-alive connection that ran out its budget or met the drain with
// nothing asked, and EOFs and resets, where there is nobody to tell.
func (fab *Fabric) readErrResponse(c *serve.Conn, served int, err error) (resp serve.Response, ok bool) {
	switch {
	case errors.Is(err, serve.ErrDeadline):
		if served > 0 && !c.Partial() {
			return resp, false
		}
		return serve.Response{Status: 504, Body: []byte("deadline exceeded reading request\n")}, true
	case errors.Is(err, serve.ErrAborted):
		if !c.Partial() {
			return resp, false
		}
		return serve.Response{
			Status:     503,
			Body:       []byte("shedding load: draining\n"),
			RetryAfter: fab.opts.RetryAfter,
		}, true
	case errors.Is(err, serve.ErrTooLarge), errors.Is(err, serve.ErrBadRequest):
		return malformedResponse(err), true
	}
	return resp, false
}

// topicKey returns the routing key for a pub/sub request — its topic —
// or "" for everything else.  Routing by topic is what makes a topic
// live on exactly one shard.
func (fab *Fabric) topicKey(req *serve.Request) string {
	if !fab.opts.PubSub {
		return ""
	}
	switch req.Path {
	case "/publish", "/subscribe", "/unsubscribe":
		return req.Query("topic")
	}
	return ""
}

// streamIndex finds the first streaming response in a batch, -1 if none.
func streamIndex(resps []serve.Response) int {
	for i := range resps {
		if resps[i].Stream != nil {
			return i
		}
	}
	return -1
}

// streamConn hands a connection thread to a streaming response: flush
// the responses batched ahead of it (keep-alive — the stream header
// follows on the same socket), then pump frames until the stream closes
// or the client dies.  Responses pipelined behind the stream are
// dropped — a stream takes the connection to its end — with their own
// streams, if any, canceled rather than leaked.
func (fab *Fabric) streamConn(c *serve.Conn, resps []serve.Response, si int, capTick int64) {
	self := proc.Self()
	sresp := resps[si]
	for _, r := range resps[si+1:] {
		if r.Stream != nil {
			r.Stream.Cancel()
		}
	}
	if err := c.WriteResponses(resps[:si], capTick, true); err != nil {
		sresp.Stream.Cancel()
		return
	}
	fab.m.streamConns.Inc(self)
	sresp.Stream = &countedStream{s: sresp.Stream, n: fab.m.streamFrames}
	c.StreamResponse(sresp, fab.opts.HeartbeatTicks, fab.opts.DeadlineTicks)
	fab.m.streamConns.Add(self, -1)
}

// countedStream charges shard.stream_frames for every frame the
// connection-thread front pulls (the mux front counts at its own pull
// site in pumpStreams).
type countedStream struct {
	s serve.Streamer
	n *metrics.Counter
}

func (cs *countedStream) Pull() ([]byte, bool, bool) {
	f, ok, open := cs.s.Pull()
	if ok {
		cs.n.Inc(proc.Self())
	}
	return f, ok, open
}

func (cs *countedStream) Cancel() { cs.s.Cancel() }

// pendingReply is one slot of a dispatch batch: either a reply cell to
// await (rep non-nil, bound for tgt) or an immediately-known response
// (/fabricz and /scale answered at the front, ring-full sheds).  tgt is
// the backend itself, not an index: a membership flip mid-batch cannot
// re-point a pending cell at a different member.
type pendingReply struct {
	rep  *reply
	tgt  *backend
	pin  bool // topic-routed: the job must run on tgt, never be stolen
	resp serve.Response
}

// dispatchBatch routes a batch of pipelined requests, forwards each run
// of consecutive same-shard requests as one multi-push (one spinlock
// acquisition per run instead of per request), awaits the batch's reply
// group — one spin-then-park wait for the whole batch, since the last
// delivery publishes it — and appends the responses to resps in request
// order.  /fabricz is answered at the front itself — the fabric's own
// status endpoint.  pend, jbuf, and cells are caller-owned scratch
// (≥ len(reqs) each); cells and grp are reusable because the wait only
// returns once every pushed cell's delivery has fully completed.
func (fab *Fabric) dispatchBatch(reqs []*serve.Request, chash uint32,
	pend []pendingReply, jbuf []job, cells []reply, grp *replyGroup,
	sp *spinState, resps []serve.Response) []serve.Response {
	grp.open()
	// Cells shed on a full ring never reach a backend: seal retires them
	// from the membership before the wait.
	members := fab.forwardBatch(reqs, chash, pend, jbuf, cells, grp)
	grp.seal(members)
	if members > 0 {
		fab.waitReply(grp.done, sp)
	}
	return fab.collectBatch(reqs, pend, resps)
}

// forwardBatch is the non-waiting front half of a dispatch: route every
// request (answering /fabricz inline and enrolling the rest in cells
// bound to g), then forward each run of consecutive same-target requests
// as one multi-push, shedding with 503 where a ring is full.  It returns
// the number of cells actually pushed — the group membership the caller
// seals.  The multiplexed front calls this directly and polls the group
// instead of blocking.
func (fab *Fabric) forwardBatch(reqs []*serve.Request, chash uint32,
	pend []pendingReply, jbuf []job, cells []reply, g *replyGroup) int {
	self := proc.Self()
	// One membership snapshot per batch: every request in the batch
	// routes against the same epoch, and the snapshot is immutable, so a
	// flip landing mid-loop cannot tear the routing.
	mem := fab.mem.Load()
	// Route every request first so run grouping sees final targets.
	for i, req := range reqs {
		switch req.Path {
		case "/fabricz":
			pend[i] = pendingReply{resp: fab.statusResponse()}
			continue
		case "/scale":
			pend[i] = pendingReply{resp: fab.scaleResponse(req)}
			continue
		}
		var tgt *backend
		pin := false
		if t := fab.topicKey(req); t != "" {
			// Pub/sub requests route by topic through the same consistent
			// ring as sticky keys: one shard's broker owns each topic, so a
			// publish always meets the topic thread holding its subscribers.
			// The job is pinned: sibling shards must not steal it, because
			// only the owner's broker holds the topic's subscriber set.
			tgt = mem.shards[mem.ring.lookup(t)]
			pin = true
			fab.m.routedTopic.Inc(self)
		} else if key := req.Header(fab.opts.RouteHeader); key != "" {
			tgt = mem.shards[mem.ring.lookup(key)]
			fab.m.routedKey.Inc(self)
		} else {
			tgt = mem.shards[mem.home(chash)]
			fab.m.routedHash.Inc(self)
		}
		fab.emit(fab.evRoute, int64(tgt.id))
		cells[i] = reply{grp: g}
		pend[i] = pendingReply{rep: &cells[i], tgt: tgt, pin: pin}
	}
	// Forward: consecutive same-target requests become one pushN.
	now := fab.clock.Now()
	members := 0
	for i := 0; i < len(reqs); {
		if pend[i].rep == nil {
			i++
			continue
		}
		tgt := pend[i].tgt
		n := 0
		j := i
		for ; j < len(reqs) && pend[j].rep != nil && pend[j].tgt == tgt; j++ {
			jbuf[n] = job{
				req:       reqs[j],
				remaining: reqs[j].Deadline - now,
				pushed:    now,
				rep:       pend[j].rep,
				pinned:    pend[j].pin,
			}
			n++
		}
		pushed := tgt.ring.pushN(jbuf[:n])
		members += pushed
		if pushed > 0 {
			fab.m.pushBatch.Observe(self, int64(pushed))
			fab.m.forwarded[tgt.id].Add(self, int64(pushed))
			fab.emit(fab.evForward, int64(tgt.id))
		}
		for k := pushed; k < n; k++ {
			fab.m.ringFull.Inc(self)
			pend[i+k] = pendingReply{resp: serve.Response{
				Status:     503,
				Body:       []byte("shedding load: shard ring full\n"),
				RetryAfter: fab.opts.RetryAfter,
			}}
		}
		i = j
	}
	for n := range jbuf {
		jbuf[n] = job{} // drop request references
	}
	return members
}

// collectBatch appends the batch's responses to resps in request order,
// clearing pend as it goes.  Every cell must already be delivered —
// after the group wait, or a poller's grp.done() — so the loop is pure
// reads.
func (fab *Fabric) collectBatch(reqs []*serve.Request, pend []pendingReply,
	resps []serve.Response) []serve.Response {
	self := proc.Self()
	for i := range reqs {
		if rep := pend[i].rep; rep == nil {
			resps = append(resps, pend[i].resp)
		} else {
			fab.m.replies.Inc(self)
			fab.emit(fab.evReply, int64(rep.resp.Status))
			resps = append(resps, rep.resp)
		}
		pend[i] = pendingReply{}
	}
	return resps
}

// waitReply blocks the calling front thread until cond holds — a reply
// group's countdown — through the connection's spin budget (adaptive,
// or fixed under Options.FairLocks), charging the reply-wait
// instruments.
func (fab *Fabric) waitReply(cond func() bool, sp *spinState) {
	t0 := fab.clock.Now()
	spins, parks := spinWait(cond, sp, fab.frontSys.Yield, fab.park)
	self := proc.Self()
	if spins > 0 {
		fab.m.replySpins.Add(self, int64(spins))
	}
	if parks > 0 {
		fab.m.replyParks.Add(self, int64(parks))
	}
	fab.m.waitTicks.Observe(self, fab.clock.Now()-t0)
}

// statusResponse renders /fabricz: membership state (epoch, per-member
// lifecycle phase, vnode ownership) plus per-shard allowance and load.
// histLine renders one histogram snapshot as a single /fabricz line of
// "le<bound>:<count>" fields with the overflow bucket as "inf:<count>",
// or nothing when the histogram is empty.
func histLine(name string, h metrics.HistogramSnapshot) string {
	if h.Count == 0 {
		return ""
	}
	line := name
	for i, c := range h.Counts {
		if i < len(h.Bounds) {
			line += fmt.Sprintf(" le%d:%d", h.Bounds[i], c)
		} else {
			line += fmt.Sprintf(" inf:%d", c)
		}
	}
	return line + "\n"
}

func (fab *Fabric) statusResponse() serve.Response {
	mem := fab.mem.Load()
	loads := fab.shardLoads(mem.shards)
	limits := fab.Limits()
	body := fmt.Sprintf("shards %d\n", len(mem.shards))
	for i, b := range mem.shards {
		body += fmt.Sprintf("shard %d limit %d load %d ring %d\n",
			b.id, limits[i], loads[i], b.ring.depth())
	}
	snap := fab.frontSys.Metrics().Snapshot()
	body += fmt.Sprintf("epoch %d active %d min %d max %d elastic %v autoscale %v\n",
		mem.epoch, len(mem.shards), fab.opts.MinShards, fab.opts.MaxShards,
		fab.Elastic(), fab.opts.Autoscale)
	vn := mem.ring.ownerCounts(len(mem.shards))
	fab.state.Lock()
	all := append([]*backend(nil), fab.backends...)
	fab.state.Unlock()
	for _, b := range all {
		vnodes := 0
		for i, a := range mem.shards {
			if a == b {
				vnodes = vn[i]
				break
			}
		}
		body += fmt.Sprintf("member %d phase %s limit %d ring %d vnodes %d\n",
			b.id, phaseName(b.phase.Load()), fab.limitOf(b.id), b.ring.depth(), vnodes)
		if line := b.srv.MLStatsLine(); line != "" {
			body += fmt.Sprintf("member %d %s\n", b.id, line)
		}
	}
	body += fmt.Sprintf("scale_ups %d scale_downs %d joins %d leaves %d stale_discarded %d handoff_topics %d handoff_subs %d\n",
		snap.Get("shard.scale_ups"), snap.Get("shard.scale_downs"),
		snap.Get("shard.member_joins"), snap.Get("shard.member_leaves"),
		snap.Get("shard.scale_stale_discarded"),
		snap.Get("shard.handoff_topics"), snap.Get("shard.handoff_subs"))
	body += fmt.Sprintf("conns %d rebalances %d\n",
		snap.Get("shard.conns"), snap.Get("shard.rebalances"))
	rw := snap.Histograms["shard.ring_wait_ticks"]
	var rwOver int64
	if n := len(rw.Counts); n > 0 {
		rwOver = rw.Counts[n-1] // claims past the largest bound: the tail the protocol bounds
	}
	body += fmt.Sprintf("fair_locks %v ring_waits %d ring_wait_over %d reply_spin %d reply_park %d\n",
		fab.opts.FairLocks, rw.Count, rwOver,
		snap.Get("shard.reply_spin"), snap.Get("shard.reply_park"))
	// Full wait bucket dumps (bound:count, last bucket = past the largest
	// bound) so the bench harness can record both distributions: ring
	// claim waits in claim-loop yields, reply waits in clock ticks.
	body += histLine("ring_wait_hist", rw)
	body += histLine("reply_wait_hist", snap.Histograms["shard.reply_wait_ticks"])
	body += fmt.Sprintf("steals %d stolen %d attempts %d aborts %d ring_expired %d\n",
		snap.Get("shard.steals"), snap.Get("shard.stolen"),
		snap.Get("shard.steal_attempts"), snap.Get("shard.steal_aborts"),
		snap.Get("shard.ring_expired"))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	body += fmt.Sprintf("pollers %d conns_parked %d poll_wakeups %d resume_batches %d\n",
		len(fab.pollers), snap.Get("serve.conns_parked"),
		snap.Get("serve.poll_wakeups"), snap.Histograms["serve.resume_batch"].Count)
	if fab.opts.PubSub {
		var ps pubsub.Stats
		for _, b := range all {
			s := b.broker.Stats()
			ps.Topics += s.Topics
			ps.Subs += s.Subs
			ps.Published += s.Published
			ps.Delivered += s.Delivered
			ps.QuotaDenied += s.QuotaDenied
			ps.DroppedSlow += s.DroppedSlow
		}
		body += fmt.Sprintf("pubsub topics %d subs %d published %d delivered %d quota_denied %d dropped_slow %d\n",
			ps.Topics, ps.Subs, ps.Published, ps.Delivered, ps.QuotaDenied, ps.DroppedSlow)
		body += fmt.Sprintf("stream_conns %d stream_frames %d routed_topic %d\n",
			snap.Get("shard.stream_conns"), snap.Get("shard.stream_frames"),
			snap.Get("shard.routed_topic"))
	}
	body += fmt.Sprintf("goroutines %d threads %d heap_alloc %d\n",
		runtime.NumGoroutine(), pprof.Lookup("threadcreate").Count(), ms.HeapAlloc)
	return serve.Response{Status: 200, Body: []byte(body)}
}

// isTimeout reports whether err is a network timeout.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
