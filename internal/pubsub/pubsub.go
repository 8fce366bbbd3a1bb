// Package pubsub is a CML-native publish/subscribe broker: topics,
// subscriptions, and fan-out are MP threads synchronizing on CML events
// — each topic is one thread selecting (cml.Choose) between its control
// mailbox and a periodic clock event, so the subscriber list needs no
// lock at all.  The same purity rule as internal/serve and
// internal/shard applies (no go/chan/<-/select; enforced by
// purity_test.go): the paper's claim, extended — procs + locks +
// continuations carry a message-passing broker, not just examples.
//
// Shape of the subsystem:
//
//	/publish ─▶ handler ──Mailbox.Send──▶ topic thread ──enqueue──▶
//	delivery world (PrioSystem, fair-share by tenant virtual time)
//	──SubStream.push──▶ subscriber ring ──Pull──▶ connection owner
//	(serve worker / fabric conn thread / mux poller) ──chunks──▶ client
//
// The publish ack (HTTP 200) is issued only after the fan-out job has
// settled every subscriber slot — frame in the ring or the slot's owner
// evicted/dead — and drain closes streams only after every pending
// fan-out settles, so an acked message is delivered to every subscriber
// that stays alive to read it.  A subscription costs no broker thread:
// live delivery state is the SubStream ring the connection owner pulls,
// which is what lets thousands of subscribers park on the mux front.
//
// Multi-tenant QoS (qos.go): per-tenant token-bucket publish admission
// (429 past the burst) and fair-share delivery dispatch on the
// priority scheduler.
package pubsub

import (
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/cml"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/proc"
	"repro/internal/serve"
	"repro/internal/threads"
)

// Options parameterize a Broker.
type Options struct {
	// TenantHeader names the request header carrying the tenant id
	// (default "X-Tenant"); absent means DefaultTenant.
	TenantHeader string
	// DefaultTenant is the tenant of unlabelled requests (default "anon").
	DefaultTenant string
	// StreamDepth is each subscriber's buffered frame ring; a subscriber
	// whose ring overflows is evicted as a slow consumer (default 256).
	StreamDepth int
	// QuotaPerSec is the per-tenant publish admission rate in
	// publishes/second; 0 means unlimited.
	QuotaPerSec int
	// QuotaBurst is the token-bucket depth (default max(QuotaPerSec, 8)).
	QuotaBurst int
	// Tick is the wall duration of one tick on the broker's clock — must
	// match the owning server's Options.Tick for quota math (default 1ms).
	Tick time.Duration
	// TopicTick is the topic-thread housekeeping period in ticks: dead
	// subscribers are pruned and drain is observed this often (default 25).
	TopicTick int64
	// DeliveryProcs is the delivery world's processor allowance (default 1).
	DeliveryProcs int
	// DeliveryThreads is the number of dispatcher threads (default 2).
	DeliveryThreads int
	// DeliveryBatch bounds subscriber pushes per dispatch quantum — the
	// granularity of fair-share interleaving between tenants (default 64).
	DeliveryBatch int
	// SubIDs, when non-nil, is a shared subscription-id allocator.  A
	// fabric hosting several brokers passes one allocator to all of them
	// so a subscription handed off between brokers (migrate.go) can never
	// collide with a subscription the adopting broker minted itself; nil
	// keeps the broker's private counter.
	SubIDs *atomic.Int64
}

func (o *Options) fill() {
	if o.TenantHeader == "" {
		o.TenantHeader = "X-Tenant"
	}
	if o.DefaultTenant == "" {
		o.DefaultTenant = "anon"
	}
	if o.StreamDepth <= 0 {
		o.StreamDepth = 256
	}
	if o.QuotaBurst <= 0 {
		o.QuotaBurst = o.QuotaPerSec
		if o.QuotaBurst < 8 {
			o.QuotaBurst = 8
		}
	}
	if o.Tick <= 0 {
		o.Tick = time.Millisecond
	}
	if o.TopicTick <= 0 {
		o.TopicTick = 25
	}
	if o.DeliveryProcs <= 0 {
		o.DeliveryProcs = 1
	}
	if o.DeliveryThreads <= 0 {
		o.DeliveryThreads = 2
	}
	if o.DeliveryBatch <= 0 {
		o.DeliveryBatch = 64
	}
}

// topic control-message kinds.
const (
	msgPub = iota
	msgSub
	msgUnsub
	msgTick
	msgPeek   // migration: snapshot the subscriber list (migrate.go)
	msgAdopt  // migration: absorb subscribers handed off by another broker
	msgDetach // migration: forget handed-off subscribers without closing them
)

// topicMsg is one control message to a topic thread.
type topicMsg struct {
	kind   int
	frame  []byte
	tenant *tenant
	sub    *Sub
	subID  int64
	subs   []*Sub // msgAdopt
	mig    *Migration
	done   *gate
}

// topic is one topic: a mailbox-driven MP thread owning the subscriber
// list.  queued counts control messages sent but not yet consumed,
// guarded by the broker state lock — the handshake that lets the thread
// exit under drain without stranding an in-flight message.
type topic struct {
	name   string
	ctrl   *cml.Mailbox[topicMsg]
	queued int
	moved  bool // migrated away: thread exits once queued == 0
	subs   []*Sub
}

// gate is a single-assignment completion cell between a handler thread
// and the topic/delivery side; the handler spins briefly then parks on
// the clock (Broker.await).
type gate struct{ v atomic.Int32 }

const (
	gatePending int32 = iota
	gateOK
	gateRejected
	gateNotFound
	gateMoved
)

func (g *gate) set(v int32) { g.v.Store(v) }

// brokerMetrics caches the broker's instrument handles on the owning
// registry; dynamic per-tenant counters are created on first sight
// (Registry.Counter is get-or-create).
type brokerMetrics struct {
	topics       *metrics.Counter // gauge
	subs         *metrics.Counter // gauge
	subscribes   *metrics.Counter
	unsubscribes *metrics.Counter
	published    *metrics.Counter
	rejected     *metrics.Counter // 503 drain rejections
	quotaDenied  *metrics.Counter // 429 admission denials
	delivered    *metrics.Counter
	droppedSlow  *metrics.Counter
	moved        *metrics.Counter // 409s: requests for a migrated topic
	fanout       *metrics.Histogram
	deliveryLag  *metrics.Histogram
}

// Broker is the pub/sub subsystem for one serve.Server (one shard).
// Create with New, wire with Install, run the delivery world via
// Runner, stop with Close.
type Broker struct {
	sys   *threads.System
	clock *cml.Clock
	reg   *metrics.Registry
	opts  Options
	m     brokerMetrics

	ratePerTick float64
	burst       float64

	state       core.Lock // guards the fields below + topic.queued + tenant admission
	topics      map[string]*topic
	tenants     map[string]*tenant
	moved       map[string]bool // tombstones: topics migrated to another broker
	nextSub     int64
	topicsLive  int
	started     bool // janitor forked (with the first topic)
	draining    bool
	releaseHold func()

	dw *deliveryWorld
}

// New prepares a broker scheduling its topic threads on sys, telling
// time by clock (the owning server's), and instrumenting reg.
func New(sys *threads.System, clock *cml.Clock, reg *metrics.Registry, opts Options) *Broker {
	opts.fill()
	b := &Broker{
		sys:     sys,
		clock:   clock,
		reg:     reg,
		opts:    opts,
		state:   core.NewMutexLock(),
		topics:  make(map[string]*topic),
		tenants: make(map[string]*tenant),
		moved:   make(map[string]bool),
	}
	if opts.QuotaPerSec > 0 {
		b.ratePerTick = float64(opts.QuotaPerSec) * float64(opts.Tick) / float64(time.Second)
		b.burst = float64(opts.QuotaBurst)
	}
	bounds := []int64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}
	b.m = brokerMetrics{
		topics:       reg.Counter("pubsub.topics"),
		subs:         reg.Counter("pubsub.subs"),
		subscribes:   reg.Counter("pubsub.subscribes"),
		unsubscribes: reg.Counter("pubsub.unsubscribes"),
		published:    reg.Counter("pubsub.published"),
		rejected:     reg.Counter("pubsub.publish_rejected"),
		quotaDenied:  reg.Counter("pubsub.quota_denied"),
		delivered:    reg.Counter("pubsub.delivered"),
		droppedSlow:  reg.Counter("pubsub.dropped_slow"),
		moved:        reg.Counter("pubsub.moved_rejected"),
		fanout:       reg.Histogram("pubsub.fanout", bounds),
		deliveryLag:  reg.Histogram("pubsub.delivery_lag_ticks", bounds),
	}
	b.dw = newDeliveryWorld(b, opts.DeliveryProcs, opts.DeliveryThreads, opts.DeliveryBatch)
	return b
}

// Install registers the broker's endpoints on srv and wires its
// lifecycle to the server's: a Hold keeps the server's pumps alive
// until the broker has flushed and closed every stream, and OnDrain
// triggers Close so a SIGTERM drain tears streams down in order.
func Install(srv *serve.Server, b *Broker) {
	srv.Handle("/publish", b.HandlePublish)
	srv.Handle("/subscribe", b.HandleSubscribe)
	srv.Handle("/unsubscribe", b.HandleUnsubscribe)
	b.releaseHold = srv.Hold()
	srv.OnDrain(b.Close)
}

// Runner returns the delivery world's host entry point: like
// Fabric.Runners, the host calls it on a goroutine of its own; it
// returns once Close has fired and every pending delivery has settled.
func (b *Broker) Runner() func() { return b.dw.run }

// Close begins broker shutdown; idempotent and callable from any
// goroutine (signal handlers, serve.OnDrain).  New publishes and
// subscribes reject immediately with 503; topic threads exit as their
// in-flight messages settle; the janitor then waits for pending
// fan-outs, closes every subscriber stream (subscribers see the
// chunked terminator), stops the delivery world, and releases the
// server Hold.  When no topic was ever created there is no janitor and
// Close finishes inline.
func (b *Broker) Close() {
	b.state.Lock()
	already := b.draining
	b.draining = true
	started := b.started
	b.state.Unlock()
	if already {
		return
	}
	if !started {
		b.finishClose()
	}
}

// finishClose closes every subscriber stream, stops the delivery
// world, and releases the server hold — the last acts of a drain.
func (b *Broker) finishClose() {
	b.state.Lock()
	var subs []*Sub
	for _, tp := range b.topics {
		subs = append(subs, tp.subs...)
	}
	rel := b.releaseHold
	b.releaseHold = nil
	b.state.Unlock()
	for _, s := range subs {
		s.st.close()
	}
	b.dw.halt()
	if rel != nil {
		rel()
	}
}

// janitor is the broker's drain finisher, forked alongside the first
// topic thread.  It naps on the broker clock until Close has fired,
// every topic thread has exited (topicsLive == 0 — all in-flight
// control messages settled), and the delivery world has no pending
// fan-outs; only then do streams close.  That ordering is the zero-loss
// guarantee: every acked publish's frames are in the subscriber rings
// before the rings' close is visible.
func (b *Broker) janitor() {
	for {
		cml.Sync(b.sys, b.clock.AfterEvt(b.opts.TopicTick))
		b.state.Lock()
		ready := b.draining && b.topicsLive == 0
		b.state.Unlock()
		if ready && b.dw.pending.Load() == 0 {
			b.finishClose()
			return
		}
	}
}

// Stats is an aggregated snapshot for status pages (/fabricz).
type Stats struct {
	Topics      int64
	Subs        int64
	Published   int64
	Delivered   int64
	QuotaDenied int64
	DroppedSlow int64
}

// Stats reads the aggregate counters.
func (b *Broker) Stats() Stats {
	return Stats{
		Topics:      b.m.topics.Value(),
		Subs:        b.m.subs.Value(),
		Published:   b.m.published.Value(),
		Delivered:   b.m.delivered.Value(),
		QuotaDenied: b.m.quotaDenied.Value(),
		DroppedSlow: b.m.droppedSlow.Value(),
	}
}

// ------------------------------------------------------------- handlers

// tenantOf resolves the request's tenant label.
func (b *Broker) tenantOf(req *serve.Request) string {
	if t := req.Header(b.opts.TenantHeader); t != "" {
		return t
	}
	return b.opts.DefaultTenant
}

// drainResp is the 503 every pub/sub operation answers while draining.
func (b *Broker) drainResp() serve.Response {
	b.m.rejected.Inc(proc.Self())
	return serve.Response{
		Status:     503,
		Body:       []byte("pubsub draining\n"),
		RetryAfter: 1,
	}
}

// movedResp is the 409 a tombstoned topic answers: the topic has been
// handed off to another broker, and accepting the request here would
// either ack a publish no handed-off subscriber can see or recreate an
// orphan topic.  Deliberately 4xx, not 5xx: it is the client's stale
// route, not a broker failure, and a retry re-routes through the
// current ring to the new owner.
func (b *Broker) movedResp() serve.Response {
	b.m.moved.Inc(proc.Self())
	return serve.Response{
		Status:     409,
		Body:       []byte("topic moved\n"),
		RetryAfter: 1,
	}
}

// allocSubID mints a subscription id — from the shared allocator when
// the host wired one (fabric-wide uniqueness across handoffs), else the
// broker's private counter; call with the state lock held.
func (b *Broker) allocSubID() int64 {
	if b.opts.SubIDs != nil {
		return b.opts.SubIDs.Add(1)
	}
	b.nextSub++
	return b.nextSub
}

// tenantLocked returns (creating on first sight) the tenant record;
// call with the state lock held.
func (b *Broker) tenantLocked(name string) *tenant {
	t := b.tenants[name]
	if t == nil {
		t = &tenant{
			name:      name,
			tokens:    b.burst,
			refillAt:  b.clock.Now(),
			published: b.reg.Counter("pubsub.tenant_pub_" + name),
			delivered: b.reg.Counter("pubsub.tenant_delivered_" + name),
		}
		b.tenants[name] = t
	}
	return t
}

// admitPublish charges one publish against the tenant's token bucket;
// call with the state lock held.  The bucket refills continuously at
// the per-tick rate and holds at most burst tokens.
func (b *Broker) admitPublish(t *tenant, now int64) bool {
	if b.ratePerTick <= 0 {
		return true
	}
	if now > t.refillAt {
		t.tokens += float64(now-t.refillAt) * b.ratePerTick
		if t.tokens > b.burst {
			t.tokens = b.burst
		}
		t.refillAt = now
	}
	if t.tokens < 1 {
		return false
	}
	t.tokens--
	return true
}

// topicLocked returns (creating if needed) the named topic and charges
// one control message to its queued count; call with the state lock
// held.  The caller must fork the topic thread (and the janitor, once)
// after releasing the lock — never fork while holding a spinlock.
func (b *Broker) topicLocked(name string) (tp *topic, created, startJanitor bool) {
	tp = b.topics[name]
	if tp != nil && tp.moved {
		// A migrated-away topic whose thread has not exited yet counts as
		// absent: a fresh topic replaces the map entry (the old thread's
		// exit only deletes the entry if it still points at itself).
		tp = nil
	}
	if tp == nil {
		tp = &topic{name: name, ctrl: cml.NewMailbox[topicMsg]()}
		b.topics[name] = tp
		b.topicsLive++
		created = true
		if !b.started {
			b.started = true
			startJanitor = true
		}
	}
	tp.queued++
	return tp, created, startJanitor
}

// forkTopic starts the freshly created topic's thread (and the janitor
// with the very first topic).  The mailbox buffers anything sent before
// the thread is scheduled.
func (b *Broker) forkTopic(tp *topic, created, startJanitor bool) {
	if created {
		b.m.topics.Inc(proc.Self())
		b.sys.Fork(func() { b.topicThread(tp) })
	}
	if startJanitor {
		b.sys.Fork(func() { b.janitor() })
	}
}

// await parks the handler until the gate settles: a short yield burst
// for the common fast path, then clock naps.
func (b *Broker) await(g *gate) int32 {
	for i := 0; ; i++ {
		if v := g.v.Load(); v != gatePending {
			return v
		}
		if i < 64 {
			b.sys.Yield()
		} else {
			cml.Sync(b.sys, b.clock.AfterEvt(1))
		}
	}
}

// HandlePublish: POST /publish?topic=T with the frame as the body.
// Admission (drain check, tenant quota) happens under one state-lock
// critical section; the ack (200) comes back only after the topic
// thread has fanned the frame out into every live subscriber's ring.
func (b *Broker) HandlePublish(req *serve.Request) serve.Response {
	name := req.Query("topic")
	if name == "" {
		return serve.Response{Status: 400, Body: []byte("missing topic\n")}
	}
	self := proc.Self()
	now := b.clock.Now()
	b.state.Lock()
	if b.draining {
		b.state.Unlock()
		return b.drainResp()
	}
	if b.moved[name] {
		b.state.Unlock()
		return b.movedResp()
	}
	t := b.tenantLocked(b.tenantOf(req))
	if !b.admitPublish(t, now) {
		b.state.Unlock()
		b.m.quotaDenied.Inc(self)
		return serve.Response{
			Status:     429,
			Body:       []byte("publish quota exceeded\n"),
			RetryAfter: 1,
		}
	}
	tp, created, startJanitor := b.topicLocked(name)
	b.state.Unlock()
	b.forkTopic(tp, created, startJanitor)
	// The request body points into the connection's arena, which is
	// recycled the moment this handler returns — the frame must own its
	// bytes.
	frame := append([]byte(nil), req.Body...)
	g := &gate{}
	tp.ctrl.Send(b.sys, topicMsg{kind: msgPub, frame: frame, tenant: t, done: g})
	if b.await(g) != gateOK {
		return b.drainResp()
	}
	b.m.published.Inc(self)
	t.published.Inc(self)
	return serve.Response{Status: 200, Body: []byte("ok\n")}
}

// HandleSubscribe: GET /subscribe?topic=T.  The response carries the
// subscription as its Stream: the connection owner (worker thread or
// mux poller) writes the chunked header and pulls frames from the
// subscriber's ring for the connection's remaining life.  The first
// frame is "id:<n>" — the handle /unsubscribe takes.
func (b *Broker) HandleSubscribe(req *serve.Request) serve.Response {
	name := req.Query("topic")
	if name == "" {
		return serve.Response{Status: 400, Body: []byte("missing topic\n")}
	}
	self := proc.Self()
	b.state.Lock()
	if b.draining {
		b.state.Unlock()
		return b.drainResp()
	}
	if b.moved[name] {
		b.state.Unlock()
		return b.movedResp()
	}
	t := b.tenantLocked(b.tenantOf(req))
	id := b.allocSubID()
	tp, created, startJanitor := b.topicLocked(name)
	b.state.Unlock()
	b.forkTopic(tp, created, startJanitor)
	sub := &Sub{id: id, topic: name, tenant: t, st: newSubStream(b.opts.StreamDepth)}
	sub.st.push([]byte("id:"+strconv.FormatInt(id, 10)), b.clock.Now())
	g := &gate{}
	tp.ctrl.Send(b.sys, topicMsg{kind: msgSub, sub: sub, done: g})
	if b.await(g) != gateOK {
		return b.drainResp()
	}
	b.m.subscribes.Inc(self)
	return serve.Response{Status: 200, Stream: sub}
}

// HandleUnsubscribe: POST /unsubscribe?topic=T&id=N.  The subscriber's
// stream closes cleanly: buffered frames drain, then the terminator.
func (b *Broker) HandleUnsubscribe(req *serve.Request) serve.Response {
	name := req.Query("topic")
	id, err := strconv.ParseInt(req.Query("id"), 10, 64)
	if name == "" || err != nil {
		return serve.Response{Status: 400, Body: []byte("missing topic or id\n")}
	}
	b.state.Lock()
	if b.draining {
		b.state.Unlock()
		return b.drainResp()
	}
	if b.moved[name] {
		b.state.Unlock()
		return b.movedResp()
	}
	tp := b.topics[name]
	if tp == nil {
		b.state.Unlock()
		return serve.Response{Status: 404, Body: []byte("no such topic\n")}
	}
	tp.queued++
	b.state.Unlock()
	g := &gate{}
	tp.ctrl.Send(b.sys, topicMsg{kind: msgUnsub, subID: id, done: g})
	switch b.await(g) {
	case gateOK:
		return serve.Response{Status: 200, Body: []byte("ok\n")}
	case gateNotFound:
		return serve.Response{Status: 404, Body: []byte("no such subscription\n")}
	default:
		return b.drainResp()
	}
}

// ---------------------------------------------------------- topic thread

// topicThread owns one topic for the topic's whole life: every
// subscribe, unsubscribe, and publish serializes through its mailbox,
// so the subscriber list is plain thread-local state.  The periodic
// clock event in the Choose — a real CML select between a mailbox and a
// timeout — is where dead subscribers are pruned and drain is observed.
// Exit: draining with no in-flight control messages (queued == 0 under
// the state lock; after draining is set nothing can re-increment it).
func (b *Broker) topicThread(tp *topic) {
	self := proc.Self()
	for {
		tickEvt := cml.Wrap(b.clock.AfterEvt(b.opts.TopicTick),
			func(int64) topicMsg { return topicMsg{kind: msgTick} })
		msg := cml.Sync(b.sys, cml.Choose(tp.ctrl.RecvEvt(), tickEvt))
		switch msg.kind {
		case msgTick:
			b.pruneSubs(tp)
			if b.topicDone(tp) {
				return
			}

		case msgSub:
			draining := b.consume(tp)
			if draining {
				msg.done.set(gateRejected)
				continue
			}
			tp.subs = append(tp.subs, msg.sub)
			b.m.subs.Inc(self)
			msg.done.set(gateOK)

		case msgUnsub:
			b.consume(tp)
			found := false
			for i, s := range tp.subs {
				if s.id == msg.subID {
					s.st.close()
					copy(tp.subs[i:], tp.subs[i+1:])
					tp.subs[len(tp.subs)-1] = nil
					tp.subs = tp.subs[:len(tp.subs)-1]
					b.m.subs.Add(self, -1)
					b.m.unsubscribes.Inc(self)
					found = true
					break
				}
			}
			if found {
				msg.done.set(gateOK)
			} else {
				msg.done.set(gateNotFound)
			}

		case msgPeek:
			// Migration step 1: the coordinator tombstoned the topic (no
			// new control messages can be created) and wants the live
			// subscriber set to hand to the adopting broker.  Messages
			// already in flight keep fanning out to these subscribers —
			// they stay registered here until msgDetach.
			b.consume(tp)
			b.pruneSubs(tp)
			msg.mig.subs = append([]*Sub(nil), tp.subs...)
			msg.mig.st.Store(migPeeked)

		case msgAdopt:
			if b.consume(tp) {
				msg.done.set(gateRejected)
				continue
			}
			for _, s := range msg.subs {
				if s.st.dead() {
					continue
				}
				dup := false
				for _, e := range tp.subs {
					if e == s {
						dup = true
						break
					}
				}
				if !dup {
					tp.subs = append(tp.subs, s)
					b.m.subs.Inc(self)
				}
			}
			msg.done.set(gateOK)

		case msgDetach:
			// Migration final step: every pre-tombstone message has been
			// consumed (the coordinator waited for queued == 0), so the
			// handed-off subscribers are forgotten here WITHOUT closing
			// their streams — the adopting broker owns them now.  moved
			// makes the thread exit at its next tick.
			b.consume(tp)
			if n := len(tp.subs); n > 0 {
				b.m.subs.Add(self, -int64(n))
			}
			for i := range tp.subs {
				tp.subs[i] = nil
			}
			tp.subs = tp.subs[:0]
			b.state.Lock()
			tp.moved = true // under the lock: topicLocked reads it
			b.state.Unlock()
			msg.mig.st.Store(migDetached)

		case msgPub:
			if b.consume(tp) {
				msg.done.set(gateRejected)
				continue
			}
			b.pruneSubs(tp)
			b.m.fanout.Observe(self, int64(len(tp.subs)))
			if len(tp.subs) == 0 {
				msg.done.set(gateOK)
				continue
			}
			j := &fanJob{
				frame:   msg.frame,
				subs:    append([]*Sub(nil), tp.subs...),
				pubTick: b.clock.Now(),
				done:    msg.done,
				tenant:  msg.tenant,
			}
			j.left.Store(int64(len(j.subs)))
			b.dw.enqueue(msg.tenant, j)
		}
	}
}

// consume retires one in-flight control message and reports drain.
func (b *Broker) consume(tp *topic) bool {
	b.state.Lock()
	tp.queued--
	d := b.draining
	b.state.Unlock()
	return d
}

// topicDone checks the exit condition under the same lock that guards
// queued increments: once draining (or the topic's moved tombstone) is
// set no producer can add another message, so queued == 0 is final.  A
// migrated topic is also deleted from the map so the broker's own drain
// cannot later close streams that another broker now owns; its
// tombstone in b.moved stays until an Adopt brings the name back.
func (b *Broker) topicDone(tp *topic) bool {
	b.state.Lock()
	done := (b.draining || tp.moved) && tp.queued == 0
	if done {
		b.topicsLive--
		if tp.moved && b.topics[tp.name] == tp {
			delete(b.topics, tp.name)
		}
	}
	b.state.Unlock()
	if done && tp.moved {
		b.m.topics.Add(proc.Self(), -1)
	}
	return done
}

// pruneSubs drops subscribers whose consumer canceled (dead
// connections, evicted slow consumers).
func (b *Broker) pruneSubs(tp *topic) {
	self := proc.Self()
	kept := tp.subs[:0]
	for _, s := range tp.subs {
		if s.st.dead() {
			b.m.subs.Add(self, -1)
			continue
		}
		kept = append(kept, s)
	}
	for i := len(kept); i < len(tp.subs); i++ {
		tp.subs[i] = nil
	}
	tp.subs = kept
}
