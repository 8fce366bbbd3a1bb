package shard

// The front world: the fabric's own MP threads.  frontMain is the root
// thread of the front system; it forks the clock pump, the rebalancer,
// and the acceptor, then becomes the drain supervisor.  The acceptor
// forks one connection thread per admitted client; a connection thread
// owns its socket for the connection's keep-alive lifetime, reading
// pipelined requests through serve.Conn and forwarding each to its
// routed shard.

import (
	"fmt"
	"net"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/metrics"
	"repro/internal/proc"
	"repro/internal/pubsub"
	"repro/internal/serve"
	"repro/internal/threads"
)

func (fab *Fabric) frontMain() {
	// Every front park on the clock (supervisor, policy thread, quiet
	// streams) wakes through this pump.  It exits last, once the
	// supervisor has drained the backends and the rebalancer has stopped.
	fab.frontSys.Fork(func() {
		serve.Pump(fab.frontSys, fab.clock, fab.opts.Tick, func() bool {
			fab.state.Lock()
			defer fab.state.Unlock()
			return fab.cascadeDone && fab.rebalDone
		})
	})
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

// acceptor admits connections through serve's accept loop and forks a
// connection thread per client (or hands the socket to
// a poller on the multiplexed front), shedding with 503 when the front's
// connection bound is reached or the fabric is draining.
func (fab *Fabric) acceptor() {
	nextPoller := 0
	serve.AcceptLoop(fab.frontSys, fab.ln, fab.m.acceptErrs, fab.Draining, func(nc net.Conn) {
		self := proc.Self()
		fab.m.accepted.Inc(self)
		fab.emit(fab.evAccept, fab.clock.Now())

		fab.state.Lock()
		if fab.draining || fab.activeConns >= fab.opts.MaxConns {
			why := "front connection limit"
			if fab.draining {
				why = "draining"
			}
			fab.state.Unlock()
			fab.m.shedConns.Inc(self)
			serve.ShedConn(nc, fab.ccfg, serve.ShedResponse(why))
			return
		}
		fab.activeConns++
		fab.state.Unlock()
		fab.m.conns.Inc(self)
		if len(fab.pollers) > 0 {
			// Multiplexed front: hand the socket to the next poller
			// round-robin instead of forking a connection thread.
			fab.pollers[nextPoller%len(fab.pollers)].enqueueConn(nc)
			nextPoller++
			return
		}
		fab.frontSys.Fork(func() { fab.connThread(nc) })
	})
	fab.state.Lock()
	fab.acceptorDone = true
	fab.state.Unlock()
}

// connThread serves one client connection for its keep-alive lifetime
// through serve's connection loop; its dispatch forwards each gathered
// batch shard-by-shard as multi-pushes and blocks once, on the batch's
// reply group, until the last delivery wakes it.
func (fab *Fabric) connThread(nc net.Conn) {
	// The connection's route hash is fixed; the member it resolves to is
	// looked up per batch against the current membership, so an elastic
	// fabric re-spreads long-lived connections as shards come and go.
	chash := fnv1a(nc.RemoteAddr().String())
	sc := newScratch(fab.opts.BatchMax)
	sc.grp.wake = threads.NewWake()
	loop := serve.ConnLoop{
		DeadlineTicks: fab.opts.DeadlineTicks,
		IdleTicks:     fab.opts.IdleTicks,
		BatchMax:      fab.opts.BatchMax,
		Draining:      fab.Draining,
		Dispatch: func(reqs []*serve.Request, resps []serve.Response) []serve.Response {
			if !fab.forwardBatch(reqs, chash, sc) {
				fab.awaitReplies(&sc.grp)
			}
			return fab.collectBatch(reqs, sc.pend, resps)
		},
		Stream:   fab.streamConn,
		Answered: func(serve.Response, int64) {}, // the front keeps no per-response books
	}
	loop.Serve(serve.NewConn(nc, fab.ccfg), fab.clock.Now())
	fab.releaseConn(nc)
}

// releaseConn closes an admitted connection and frees its front seat.
func (fab *Fabric) releaseConn(nc net.Conn) {
	nc.Close()
	fab.m.conns.Add(proc.Self(), -1)
	fab.state.Lock()
	fab.activeConns--
	fab.state.Unlock()
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

// streamConn hands a connection thread to a streaming response: pump
// frames until the stream closes or the client dies, holding the
// stream_conns gauge for the duration.
func (fab *Fabric) streamConn(c *serve.Conn, sresp serve.Response) {
	self := proc.Self()
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

// scratch is one in-flight dispatch batch's forwarding state, indexed by
// request slot (full length, not just capacity).  Its owner reuses it
// only once the group has completed: every pushed cell has delivered.
type scratch struct {
	pend  []pendingReply
	jbuf  []job
	cells []reply
	grp   replyGroup
}

func newScratch(batchMax int) *scratch {
	return &scratch{
		pend:  make([]pendingReply, batchMax),
		jbuf:  make([]job, batchMax),
		cells: make([]reply, batchMax),
	}
}

// forwardBatch is the non-waiting front half of a dispatch: route every
// request (answering /fabricz and /scale inline — the fabric's own
// endpoints — and enrolling the rest in cells bound to sc.grp), then
// forward each run of consecutive same-target requests as one multi-push
// (one ring-lock acquisition per run instead of per request), shedding
// with 503 where a ring is full, waking each target's idle intake.
// sc.grp is sealed at the number of cells pushed, and forwardBatch
// reports whether that already completes it (all inline, shed, or
// delivered early).  If not, a connection thread blocks on the group —
// the last delivery wakes it — and a poller polls it.
func (fab *Fabric) forwardBatch(reqs []*serve.Request, chash uint32, sc *scratch) bool {
	self := proc.Self()
	pend, jbuf, cells, g := sc.pend, sc.jbuf, sc.cells, &sc.grp
	g.open()
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
			fab.kick(tgt, mem)
		}
		for k := pushed; k < n; k++ {
			fab.m.ringFull.Inc(self)
			pend[i+k] = pendingReply{resp: serve.ShedResponse("shard ring full")}
		}
		i = j
	}
	for n := range jbuf {
		jbuf[n] = job{} // drop request references
	}
	// Cells shed on a full ring never reached a backend: seal retires them
	// from the membership before anyone waits.
	return g.seal(members)
}

// collectBatch appends the batch's responses to resps in request order,
// clearing pend as it goes.  Every cell must already be delivered —
// the group completed — so the loop is pure reads.
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

// awaitReplies blocks the calling connection thread, holding no proc,
// until the delivery that completes g signals it; the wait is charged
// in clock ticks (0 for any sub-tick wait) and in wall time.
func (fab *Fabric) awaitReplies(g *replyGroup) {
	t0, w0 := fab.clock.Now(), time.Now()
	fab.frontSys.Await(g.wake)
	self := proc.Self()
	fab.m.waitTicks.Observe(self, fab.clock.Now()-t0)
	fab.m.waitNS.Observe(self, int64(time.Since(w0)))
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
	body := fmt.Sprintf("shards %d\n", len(mem.shards))
	for i, b := range mem.shards {
		// limitOf, not Limits(): that reads the membership again, and a
		// flip between the two reads would index past the shorter one.
		body += fmt.Sprintf("shard %d limit %d load %d ring %d\n",
			b.id, fab.limitOf(b.id), loads[i], b.ring.depth())
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
	body += fmt.Sprintf("ring_waits %d ring_wait_over %d\n", rw.Count, rwOver)
	// Full wait bucket dumps (bound:count, last bucket = past the largest
	// bound) so the bench harness can record the distributions: ring claim
	// waits in claim-loop yields; reply waits in ticks and (being mostly
	// sub-tick) ns; signal → idle intake running in ns.
	body += histLine("ring_wait_hist", rw)
	body += histLine("reply_wait_hist", snap.Histograms["shard.reply_wait_ticks"])
	body += histLine("reply_wait_ns_hist", snap.Histograms["shard.reply_wait_ns"])
	body += histLine("intake_wake_ns_hist", snap.Histograms["shard.intake_wake_ns"])
	body += fmt.Sprintf("front blocking_calls %d external_wakes %d\n",
		snap.Get("proc.blocking_calls"), snap.Get("threads.external_wakes"))
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
