// Package shard is the sharded serving fabric: N independent
// serve.Server shards — each with its own proc platform, thread system,
// metrics registry, and trace rings — behind one front acceptor that
// demultiplexes persistent HTTP/1.1 keep-alive connections onto them.
//
// The front is itself a small MP world (its own platform + system): an
// acceptor thread admits connections, a connection thread per client
// reads pipelined requests through serve.Conn, routes each to a shard
// (connection hash by default, consistent hashing on a routing header
// for sticky workloads), and forwards it over that shard's MPSC ring; a
// per-shard intake thread — an MP thread of the *backend's* system —
// pops the ring and injects the request into the shard's admission
// pipeline with serve.Server.Submit.  Replies travel back through
// single-assignment cells whose batch group wakes the forwarding thread.
// Neither hop polls: an idle intake and a waiting connection thread each
// block on a threads.Wake, no proc held, signalled by the push and by
// the last delivery.  The packages' purity rule extends here: no go
// statements, no channels, no select, no net/http, no sync (the
// go/scanner test in purity_test.go enforces it);
// the only OS-level concurrency is the host calling each element of
// Runners in its own goroutine, exactly as every System.Run host already
// must.
//
// A rebalancer thread on the front system implements scheduling policy
// in the language, the paper's thesis applied across shards: every
// RebalanceTicks it reads each shard's queue-depth and in-flight gauges
// from the metrics spine, and when load skews past a slack threshold for
// HysteresisRounds consecutive readings it shifts one proc of allowance
// from the least- to the most-loaded shard via proc.SetLimit — global
// total conserved, no shard below its floor, and the donor's procs
// release themselves only at safe points (§3.1 revocation).
//
// Drain cascades: the front stops accepting, connection threads finish
// the request in flight (forwarded requests are always answered — the
// reply cell is single-assignment and the backend delivers exactly
// once), idle connections close, and only when the front counts zero
// active connections are the backends drained, so no in-flight request
// is ever dropped.
package shard

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/cml"
	"repro/internal/core"
	"repro/internal/gcsync"
	"repro/internal/metrics"
	"repro/internal/mlio"
	"repro/internal/proc"
	"repro/internal/pubsub"
	"repro/internal/serve"
	"repro/internal/threads"
	"repro/internal/trace"
)

// Options parameterize a Fabric.
type Options struct {
	// Addr is the front listener's address; empty means "127.0.0.1:0".
	Addr string
	// Shards is the number of backend serve.Server shards (default 2).
	Shards int
	// FrontProcs is the front platform's processor allowance (default 2).
	FrontProcs int
	// BackendProcs is each shard's initial allowance (default 2).  Each
	// backend platform's capacity is Shards*BackendProcs so rebalancing
	// can grow any one shard toward the global budget.
	BackendProcs int
	// RingDepth bounds each shard's forward ring; a full ring sheds the
	// request with 503 at the front (default 256).
	RingDepth int
	// BatchMax bounds every batched transfer on the request path: pipelined
	// requests forwarded per multi-push, jobs drained per intake pass, jobs
	// claimed per steal, and each backend dispatcher's items batch
	// (default 16).
	BatchMax int
	// StealMin is the minimum ring occupancy a sibling must show before an
	// idle shard's intake claims a batch from it — the anti-livelock
	// threshold: below it a steal could not move enough work to pay for
	// the claim.  NoSteal disables stealing (default 2).
	StealMin int
	// MaxConns bounds concurrently-served front connections (default 256).
	MaxConns int
	// Mux replaces the per-connection front threads with a fixed pool of
	// poller threads driving resumable connection state machines off
	// readiness events (internal/netpoll).  Off by default — the
	// per-connection-thread front stays available as the ablation
	// baseline.
	Mux bool
	// Pollers is the poller-thread count in Mux mode (default 2).
	Pollers int
	// IdleScanTicks is how often, in front clock ticks, each poller
	// sweeps its connections for idle and deadline expiry (default 50).
	IdleScanTicks int64
	// RouteHeader, when a request carries it, switches that request from
	// connection hashing to consistent hashing on the header's value —
	// sticky routing for keyed workloads (default "X-Shard-Key").
	RouteHeader string
	// RebalanceTicks is the rebalancer's period in front clock ticks;
	// 0 disables rebalancing (default 50).
	RebalanceTicks int64
	// RebalanceSlack is the load difference (queued + in-flight + ring)
	// between the most- and least-loaded shards below which no shift is
	// proposed (default 4).
	RebalanceSlack int
	// ProcFloor is the allowance no shard is shrunk below (default 1).
	ProcFloor int
	// HysteresisRounds is how many consecutive periods must propose the
	// same donor→recipient shift before it is applied (default 2).
	HysteresisRounds int
	// DeadlineTicks is the per-request deadline (front clock ticks from
	// first byte; forwarded with the request, default 2000).
	DeadlineTicks int64
	// IdleTicks bounds a keep-alive connection's wait between requests
	// (default DeadlineTicks).
	IdleTicks int64
	// QueueDepth and MaxInFlight configure each backend shard (defaults
	// as in serve.Options).
	QueueDepth  int
	MaxInFlight int
	// Tick is one clock tick of wall time, for the front and every shard
	// (default 1ms).
	Tick time.Duration
	// Quantum, if nonzero, enables preemptive timeslicing on every
	// member's thread system (threads.Options.Quantum): compute-heavy
	// handlers like /work/mlalloc yield at their CheckPreempt safe
	// points, so requests overlap inside the ML section and stop
	// barriers gather promptly.
	Quantum time.Duration
	// PubSub installs a pubsub.Broker on every shard: /publish,
	// /subscribe, /unsubscribe endpoints, topic-keyed routing through the
	// consistent-hash ring (a topic lives on one shard), and streaming
	// subscriber connections on both fronts.  Off by default.
	PubSub bool
	// TenantQuota is each tenant's publish admission rate in
	// publishes/second; 0 means unlimited (pubsub.Options.QuotaPerSec).
	TenantQuota int
	// TenantHeader names the tenant-id request header (default "X-Tenant").
	TenantHeader string
	// StreamDepth is each subscriber's buffered frame ring (default
	// pubsub's, 256).
	StreamDepth int
	// HeartbeatTicks is how long a streaming subscriber connection may sit
	// with no frames before the front writes a 1-byte heartbeat chunk to
	// surface dead peers (front clock ticks; default 2500, < 0 disables).
	HeartbeatTicks int64
	// Tracer, if non-nil, receives front fabric events (accept, route,
	// forward, reply, rebalance, drain).
	Tracer *trace.Tracer
	// Spawn, when non-nil, makes membership elastic: runtime shard
	// acquire/release needs a host goroutine per new backend world, and
	// the fabric itself may start none (the purity rule), so the host
	// passes its own "run f on a fresh goroutine" hook here — mpserved
	// wires it to its WaitGroup.  Nil pins membership at Shards.
	Spawn func(func())
	// Autoscale lets the policy thread acquire/release whole shards on
	// sustained load, within [MinShards, MaxShards]; manual /scale works
	// whenever Spawn is set, autoscaled or not.
	Autoscale bool
	// MinShards/MaxShards bound the active member count (defaults 1 and
	// 2×Shards; MaxShards is clamped to the proc budget, since every
	// member needs at least one proc).
	MinShards int
	MaxShards int
	// ScaleUpLoad and ScaleDownLoad are the mean per-shard load (queued +
	// in-flight + ring) thresholds the autoscaler acts on, with the same
	// HysteresisRounds discipline as proc shifts (defaults 8 and 2).
	ScaleUpLoad   int
	ScaleDownLoad int
	// HandoffGraceTicks is how long (front clock ticks) the coordinator
	// waits after a membership flip before detaching handed-off topics
	// from their old owners — the window for traffic routed against a
	// stale snapshot to finish (default 32).
	HandoffGraceTicks int64
	// MLAlloc installs the allocating /work/mlalloc kernel on every
	// member: each backend gets its own gcsync.World (ML heap plus the
	// clean-point collection barrier), handler threads attach to it as
	// procs per request, and the member's forward-ring and admission
	// locks poll the GC section so a thread waiting on one helps a pending
	// collection instead of convoying the stop.  Off by default.
	MLAlloc bool
	// MLNursery/MLSemi/MLChunk/MLRegion size each member's ML heap in
	// words (defaults 1<<16, 1<<20, 1024, 512).
	MLNursery int
	MLSemi    int
	MLChunk   int
	MLRegion  int
}

func (o *Options) fill() {
	if o.Shards <= 0 {
		o.Shards = 2
	}
	if o.FrontProcs <= 0 {
		o.FrontProcs = 2
	}
	if o.BackendProcs <= 0 {
		o.BackendProcs = 2
	}
	if o.RingDepth <= 0 {
		o.RingDepth = 256
	}
	if o.BatchMax <= 0 {
		o.BatchMax = 16
	}
	if o.StealMin < 0 {
		o.StealMin = 0 // NoSteal
	} else if o.StealMin == 0 {
		o.StealMin = 2
	}
	if o.MaxConns <= 0 {
		o.MaxConns = 256
	}
	if o.Pollers <= 0 {
		o.Pollers = 2
	}
	if o.IdleScanTicks <= 0 {
		o.IdleScanTicks = 50
	}
	if o.RouteHeader == "" {
		o.RouteHeader = "X-Shard-Key"
	}
	if o.RebalanceTicks < 0 {
		o.RebalanceTicks = 0
	} else if o.RebalanceTicks == 0 {
		o.RebalanceTicks = 50
	}
	if o.RebalanceSlack <= 0 {
		o.RebalanceSlack = 4
	}
	if o.ProcFloor <= 0 {
		o.ProcFloor = 1
	}
	if o.HysteresisRounds <= 0 {
		o.HysteresisRounds = 2
	}
	if o.DeadlineTicks <= 0 {
		o.DeadlineTicks = 2000
	}
	if o.IdleTicks <= 0 {
		o.IdleTicks = o.DeadlineTicks
	}
	if o.Tick <= 0 {
		o.Tick = time.Millisecond
	}
	if o.TenantHeader == "" {
		o.TenantHeader = "X-Tenant"
	}
	if o.HeartbeatTicks == 0 {
		o.HeartbeatTicks = 2500
	} else if o.HeartbeatTicks < 0 {
		o.HeartbeatTicks = 0
	}
	if o.MinShards <= 0 {
		o.MinShards = 1
	}
	if o.MinShards > o.Shards {
		o.MinShards = o.Shards
	}
	if o.MaxShards <= 0 {
		o.MaxShards = 2 * o.Shards
	}
	if budget := o.Shards * o.BackendProcs; o.MaxShards > budget {
		o.MaxShards = budget // every member needs ≥ 1 proc of the budget
	}
	if o.MaxShards < o.Shards {
		o.MaxShards = o.Shards
	}
	if o.ScaleUpLoad <= 0 {
		o.ScaleUpLoad = 8
	}
	if o.ScaleDownLoad <= 0 {
		o.ScaleDownLoad = 2
	}
	if o.ScaleDownLoad >= o.ScaleUpLoad {
		o.ScaleDownLoad = o.ScaleUpLoad - 1
	}
	if o.HandoffGraceTicks <= 0 {
		o.HandoffGraceTicks = 32
	}
	if o.MLAlloc {
		if o.MLNursery <= 0 {
			o.MLNursery = 1 << 16
		}
		if o.MLSemi <= 0 {
			o.MLSemi = 1 << 20
		}
		if o.MLChunk <= 0 {
			o.MLChunk = 1024
		}
		if o.MLRegion <= 0 {
			o.MLRegion = 512
		}
	}
}

// NoRebalance is the Options.RebalanceTicks value that disables the
// rebalancer (0 means "default period").
const NoRebalance = -1

// NoSteal is the Options.StealMin value that disables cross-shard
// stealing (0 means "default threshold").
const NoSteal = -1

// backend is one shard: its own MP world plus the forward ring into it.
// id is the member's stable *slot*: the consistent ring's vnodes, the
// forwarded_<id> counter, and the limits entry are all keyed on it, and
// it outlives the member's position in the actives array.
type backend struct {
	id     int
	pl     *proc.Platform
	sys    *threads.System
	srv    *serve.Server
	ring   *ring
	broker *pubsub.Broker // Options.PubSub; nil otherwise
	world  *gcsync.World  // Options.MLAlloc; nil otherwise

	// wake is what the intake blocks on when there is nothing to pop or
	// steal; pushers, drain and release signal it.
	wake *threads.Wake

	phase atomic.Int32 // joining → active → draining → gone
	live  atomic.Int64 // host goroutines currently running this backend's worlds
}

// fabricMetrics caches the front registry's instrument handles.
type fabricMetrics struct {
	accepted   *metrics.Counter
	acceptErrs *metrics.Counter
	conns      *metrics.Counter // gauge: active front connections
	shedConns  *metrics.Counter
	routedHash *metrics.Counter
	routedKey  *metrics.Counter
	forwarded  []*metrics.Counter // per shard
	ringFull   *metrics.Counter
	replies    *metrics.Counter
	checks     *metrics.Counter // rebalancer periods evaluated
	rebalances *metrics.Counter // shifts applied
	waitTicks  *metrics.Histogram
	waitNS     *metrics.Histogram // wall-clock reply wait: sub-tick waits read 0 above
	intakeWake *metrics.Histogram // wall-clock signal → intake running

	// How long each contended ring or inbox claim waited in its
	// FairLock's FIFO queue, in claim-loop yields.
	ringWaitTicks *metrics.Histogram

	writeBatch *metrics.Histogram // responses coalesced per front socket write

	// Batching & stealing instruments (intake-side counters are bumped
	// from backend procs; Counter masks the shard index, so cross-world
	// increments on the front registry are safe).
	pushBatch     *metrics.Histogram // jobs moved per front multi-push
	ringExpired   *metrics.Counter   // 504s for deadline expiry inside a ring
	stealAttempts *metrics.Counter
	steals        *metrics.Counter // successful claims
	stealAborts   *metrics.Counter // TryLock met contention
	stolen        *metrics.Counter // jobs moved by successful claims
	stealBatch    *metrics.Histogram

	// Multiplexed-front instruments: connections parked awaiting
	// readiness, poller waits that returned events, and connections
	// resumed per wakeup.
	connsParked *metrics.Counter // gauge: owned conns not in a dispatch
	pollWakeups *metrics.Counter
	resumeBatch *metrics.Histogram

	// Pub/sub instruments: requests routed by topic key, subscriber
	// connections currently streaming, and frames flushed to them.
	routedTopic  *metrics.Counter
	streamConns  *metrics.Counter // gauge
	streamFrames *metrics.Counter

	// Elastic-membership instruments: epoch flips (epoch = flips + 1),
	// shards acquired/released, autoscaler/manual scale steps applied,
	// policy decisions discarded for epoch staleness, and topics/subs
	// moved by handoffs.
	epochFlips    *metrics.Counter // shard.member_epoch
	memberJoins   *metrics.Counter
	memberLeaves  *metrics.Counter
	scaleUps      *metrics.Counter
	scaleDowns    *metrics.Counter
	scaleStale    *metrics.Counter // shard.scale_stale_discarded
	handoffTopics *metrics.Counter
	handoffSubs   *metrics.Counter
}

// Fabric is the sharded serving fabric; create with New, start each of
// Runners in its own goroutine, stop with Drain.
type Fabric struct {
	opts Options
	ln   *net.TCPListener

	frontPl  *proc.Platform
	frontSys *threads.System
	clock    *cml.Clock
	pool     *serve.BufPool
	ccfg     serve.ConnConfig
	pollers  []*poller // multiplexed front (Options.Mux); nil otherwise

	// mem is the versioned membership snapshot every routing decision
	// resolves against: immutable once published, flipped only by the
	// policy thread.  backends is the all-ever member list (appends under
	// the state lock; gone members stay, their registries readable).
	mem      atomic.Pointer[membership]
	budget   int // global proc budget: Shards × BackendProcs at boot
	scaleBox *cml.Mailbox[int]
	subIDs   atomic.Int64 // shared pub/sub sub-id allocator across brokers

	state        core.Lock // guards the fields below
	draining     bool
	acceptorDone bool
	activeConns  int
	cascadeDone  bool // backends drained (supervisor finished)
	rebalDone    bool
	backends     []*backend
	handlers     []handlerEntry // replayed onto runtime-spawned members
	limits       []int          // per-slot allowance (policy bookkeeping)
	lastShift    int64          // front tick of the last applied shift

	logrt  *mlio.Runtime
	logpol mlio.Policy

	m      fabricMetrics
	tracer *trace.Tracer
	evAccept, evRoute, evForward, evReply,
	evRebalance, evSteal, evDrain trace.EventID
}

// handlerEntry records one Fabric.Handle registration for replay onto
// runtime-spawned members.
type handlerEntry struct {
	pattern string
	h       serve.Handler
}

// New builds the fabric: front listener + platform, and Shards backend
// serve.Servers in NoListener mode sharing one access-log runtime under
// one per-stream lock (so concurrent shards' lines interleave un-torn,
// each carrying its shard id).  Nothing runs until the host starts the
// Runners.
func New(opts Options) (*Fabric, error) {
	opts.fill()
	tln, err := serve.Listen(opts.Addr)
	if err != nil {
		return nil, err
	}
	frontPl := proc.New(opts.FrontProcs)
	fab := &Fabric{
		opts:     opts,
		ln:       tln,
		frontPl:  frontPl,
		frontSys: threads.New(frontPl, threads.Options{}),
		clock:    cml.NewClock(),
		pool:     serve.NewBufPool(opts.FrontProcs),
		budget:   opts.Shards * opts.BackendProcs,
		scaleBox: cml.NewMailbox[int](),
		state:    core.NewMutexLock(),
		limits:   make([]int, opts.MaxShards),
		logrt:    mlio.NewBounded(serve.AccessLogBytes),
		logpol:   mlio.NewPerStream(),
		tracer:   opts.Tracer,
	}
	reg := fab.frontSys.Metrics()
	slots := make([]int, opts.Shards)
	for i := 0; i < opts.Shards; i++ {
		b, err := fab.newBackend(i, opts.BackendProcs)
		if err != nil {
			tln.Close()
			return nil, err
		}
		b.phase.Store(phaseActive)
		fab.backends = append(fab.backends, b)
		fab.limits[i] = opts.BackendProcs
		slots[i] = i
	}
	fab.mem.Store(&membership{
		epoch:  1,
		shards: append([]*backend(nil), fab.backends...),
		ring:   newChashRing(slots, ringVnodes),
	})
	if opts.Mux {
		inboxLock := fab.lockFactory(nil)
		for i := 0; i < opts.Pollers; i++ {
			p, err := newPoller(i, inboxLock)
			if err != nil {
				tln.Close()
				return nil, err
			}
			fab.pollers = append(fab.pollers, p)
		}
	}
	bounds := []int64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}
	nsBounds := []int64{1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5, 1e6, 2e6, 5e6, 1e7}
	fab.m = fabricMetrics{
		accepted:   reg.Counter("shard.accepted"),
		acceptErrs: reg.Counter("shard.accept_errors"),
		conns:      reg.Counter("shard.conns"),
		shedConns:  reg.Counter("shard.shed_conns"),
		routedHash: reg.Counter("shard.routed_hash"),
		routedKey:  reg.Counter("shard.routed_sticky"),
		ringFull:   reg.Counter("shard.ring_full"),
		replies:    reg.Counter("shard.replies"),
		checks:     reg.Counter("shard.rebalance_checks"),
		rebalances: reg.Counter("shard.rebalances"),
		waitTicks:  reg.Histogram("shard.reply_wait_ticks", bounds),
		waitNS:     reg.Histogram("shard.reply_wait_ns", nsBounds),
		intakeWake: reg.Histogram("shard.intake_wake_ns", nsBounds),
		// Ring claim waits are measured in claim-loop yields, not clock
		// ticks: a claim that straddles a descheduled holder burns many
		// cheap yields, so the bounds stretch four decades.  Overflow
		// (>100k yields) is the heavy tail the fair protocol rules out.
		ringWaitTicks: reg.Histogram("shard.ring_wait_ticks",
			[]int64{1, 2, 5, 10, 50, 100, 500, 1000, 5000, 10000, 50000, 100000}),
		writeBatch: reg.Histogram("shard.write_batch",
			[]int64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}),
		pushBatch: reg.Histogram("shard.push_batch",
			[]int64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}),
		ringExpired:   reg.Counter("shard.ring_expired"),
		stealAttempts: reg.Counter("shard.steal_attempts"),
		steals:        reg.Counter("shard.steals"),
		stealAborts:   reg.Counter("shard.steal_aborts"),
		stolen:        reg.Counter("shard.stolen"),
		stealBatch: reg.Histogram("shard.steal_batch",
			[]int64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}),
		connsParked: reg.Counter("serve.conns_parked"),
		pollWakeups: reg.Counter("serve.poll_wakeups"),
		resumeBatch: reg.Histogram("serve.resume_batch",
			[]int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}),
		routedTopic:  reg.Counter("shard.routed_topic"),
		streamConns:  reg.Counter("shard.stream_conns"),
		streamFrames: reg.Counter("shard.stream_frames"),
	}
	// Forwarded counters are slot-indexed and pre-created for every slot
	// a member could ever hold, so a runtime-spawned shard never races a
	// registry mutation on the forward hot path.
	for i := 0; i < opts.MaxShards; i++ {
		fab.m.forwarded = append(fab.m.forwarded,
			reg.Counter(fmt.Sprintf("shard.forwarded_%d", i)))
	}
	fab.m.epochFlips = reg.Counter("shard.member_epoch")
	fab.m.memberJoins = reg.Counter("shard.member_joins")
	fab.m.memberLeaves = reg.Counter("shard.member_leaves")
	fab.m.scaleUps = reg.Counter("shard.scale_ups")
	fab.m.scaleDowns = reg.Counter("shard.scale_downs")
	fab.m.scaleStale = reg.Counter("shard.scale_stale_discarded")
	fab.m.handoffTopics = reg.Counter("shard.handoff_topics")
	fab.m.handoffSubs = reg.Counter("shard.handoff_subs")
	if fab.tracer != nil {
		fab.evAccept = fab.tracer.Define("shard.accept")
		fab.evRoute = fab.tracer.Define("shard.route")
		fab.evForward = fab.tracer.Define("shard.forward")
		fab.evReply = fab.tracer.Define("shard.reply")
		fab.evRebalance = fab.tracer.Define("shard.rebalance")
		fab.evSteal = fab.tracer.Define("shard.steal")
		fab.evDrain = fab.tracer.Define("shard.drain")
	}
	fab.ccfg = serve.ConnConfig{
		Clock:        fab.clock,
		Park:         fab.park,
		Blocking:     fab.frontSys.Blocking,
		Tick:         opts.Tick,
		Pool:         fab.pool,
		OnWriteBatch: func(n int) { fab.m.writeBatch.Observe(proc.Self(), int64(n)) },
		Aborted:      fab.Draining,
		Conns:        serve.NewConnSet(),
	}
	return fab, nil
}

// Addr returns the front listener's address.
func (fab *Fabric) Addr() net.Addr { return fab.ln.Addr() }

// Shard returns member i's server (its metrics registry, access to
// Handle, etc.).  Indexes the all-ever member list: a released member's
// registry stays readable after it leaves.
func (fab *Fabric) Shard(i int) *serve.Server {
	fab.state.Lock()
	defer fab.state.Unlock()
	return fab.backends[i].srv
}

// Shards returns the all-ever member count (actives + joined-then-
// released); ActiveShards counts the current membership.
func (fab *Fabric) Shards() int {
	fab.state.Lock()
	defer fab.state.Unlock()
	return len(fab.backends)
}

// FrontMetrics returns the front system's registry (shard.* counters).
func (fab *Fabric) FrontMetrics() *metrics.Registry { return fab.frontSys.Metrics() }

// Handle registers a handler on every member (they must agree on
// routes; register before starting the Runners).  The registration is
// recorded so members acquired later serve the same routes.
func (fab *Fabric) Handle(pattern string, h serve.Handler) {
	fab.state.Lock()
	fab.handlers = append(fab.handlers, handlerEntry{pattern: pattern, h: h})
	bs := append([]*backend(nil), fab.backends...)
	fab.state.Unlock()
	for _, b := range bs {
		b.srv.Handle(pattern, h)
	}
}

// Limits returns the current per-active-member allowance view, in
// membership order.
func (fab *Fabric) Limits() []int {
	mem := fab.mem.Load()
	fab.state.Lock()
	defer fab.state.Unlock()
	out := make([]int, len(mem.shards))
	for i, b := range mem.shards {
		out[i] = fab.limits[b.id]
	}
	return out
}

// limitOf returns one slot's current allowance (policy bookkeeping).
func (fab *Fabric) limitOf(slot int) int {
	fab.state.Lock()
	defer fab.state.Unlock()
	return fab.limits[slot]
}

// AccessLog snapshots the fabric-wide access log: every shard writes
// through the same mlio runtime and per-stream lock, so lines from
// concurrent shards interleave whole, prefixed by their shard id.
func (fab *Fabric) AccessLog() []byte { return fab.logrt.Contents("access") }

// Draining reports whether Drain has been called.
func (fab *Fabric) Draining() bool {
	fab.state.Lock()
	defer fab.state.Unlock()
	return fab.draining
}

// Drain initiates the cascaded shutdown; safe from any goroutine
// (signal handlers included), idempotent.  The cascade: front acceptor
// stops → connection threads finish their in-flight request and close →
// when the front counts zero connections the supervisor drains every
// backend → backends finish queued work, their systems quiesce, and the
// front system exits last.
func (fab *Fabric) Drain() {
	fab.state.Lock()
	fab.draining = true
	fab.state.Unlock()
	// The acceptor and idle connection threads are in the kernel: wake them.
	serve.InterruptAccept(fab.ln)
	fab.ccfg.Conns.Interrupt()
	// Brokers must begin draining now, not when the backends do: a
	// streaming subscriber connection stays open (and counted) until its
	// stream closes, and the supervisor waits for zero connections before
	// it ever reaches srv.Drain.  Broker.Close settles every pending
	// fan-out, then closes the subscriber rings; the fronts see each
	// stream's close, write the chunked terminator, and release the
	// connection — which is what lets the cascade proceed.
	fab.state.Lock()
	bs := append([]*backend(nil), fab.backends...)
	fab.state.Unlock()
	for _, b := range bs {
		if b.broker != nil {
			b.broker.Close() // idempotent: a released member's is already closed
		}
	}
}

// Runners returns one entry point per OS-level host goroutine the fabric
// needs: element 0 is the front world (acceptor, connection threads,
// rebalancer, supervisor, clock pump), then each shard contributes its
// backend world (serve pipeline + ring intake) and, under Options.PubSub,
// its broker's delivery world.  The host must call
// each in its own goroutine — this package starts none itself — and all
// of them return after Drain completes.
func (fab *Fabric) Runners() []func() {
	rs := []func(){func() { fab.frontSys.Run(func() { fab.frontMain() }) }}
	for _, b := range fab.backends {
		rs = append(rs, fab.backendRunners(b)...)
	}
	return rs
}

// park suspends the calling front thread for ticks on the front clock.
func (fab *Fabric) park(ticks int64) {
	cml.Sync(fab.frontSys, fab.clock.AfterEvt(ticks))
}

// emit records a front trace event on the calling proc's ring.
func (fab *Fabric) emit(ev trace.EventID, arg int64) {
	fab.tracer.Emit(proc.Self(), ev, arg)
}

// intake is shard b's ring consumer: an MP thread of the backend's own
// system, so injected requests enter the shard's admission pipeline from
// inside its scheduling world.  Each pass drains a batch from the ring —
// one ring-lock acquisition for up to BatchMax jobs — bounded by the
// shard's queue headroom: when the shard is saturated, jobs deliberately
// stay in the ring where an idle sibling's intake can steal them.  With
// its own ring empty the intake steals from the most loaded sibling, or
// blocks until signalled that there is work.  Every drained job's
// deadline budget is charged with its front-clock ring dwell before
// SubmitMany rebases it onto this shard's clock; jobs whose budget died
// in the ring are answered 504 here without ever entering the queue.
// The thread exits once the shard is draining and the ring is empty (the
// front guarantees no more pushes by then: backends drain only after the
// last front connection closed, and a job stolen into this ring keeps
// its forwarding connection open until the reply is delivered).
func (fab *Fabric) intake(b *backend) {
	jobs := make([]job, fab.opts.BatchMax)
	subs := make([]serve.SubmitJob, fab.opts.BatchMax)
	for {
		limit := b.srv.QueueHeadroom()
		if limit > len(jobs) {
			limit = len(jobs)
		}
		n := 0
		if limit > 0 {
			n = b.ring.popN(jobs[:limit])
			if n == 0 && fab.opts.StealMin > 0 && !b.srv.Draining() {
				n = fab.steal(b, jobs[:limit])
			}
		}
		if n == 0 {
			if b.srv.Draining() {
				return
			}
			if limit == 0 {
				// Saturated, not idle: let the threads working the queue run.
				b.sys.Yield()
				continue
			}
			// Nothing to pop or steal: block, holding no proc, until a push
			// here, a push that left a sibling's ring worth stealing from
			// (kick), or the shard's drain signals — none of them the clock.
			// A signal sent since the look above is pending and ends the
			// wait at once, so no wake-up is lost.
			if d := b.sys.Await(b.wake); d > 0 {
				fab.m.intakeWake.Observe(proc.Self(), int64(d))
			}
			continue
		}
		now := fab.clock.Now()
		m := 0
		for i := 0; i < n; i++ {
			j := jobs[i]
			jobs[i] = job{}
			remaining := j.remaining - (now - j.pushed)
			if remaining < 1 {
				fab.m.ringExpired.Inc(proc.Self())
				j.rep.deliver(serve.Response{
					Status: 504,
					Body:   []byte("deadline exceeded in forward ring\n"),
				})
				continue
			}
			rep := j.rep
			subs[m] = serve.SubmitJob{
				Req:       j.req,
				Remaining: remaining,
				Deliver:   func(resp serve.Response) { rep.deliver(resp) },
			}
			m++
		}
		admitted := b.srv.SubmitMany(subs[:m])
		for i := admitted; i < m; i++ {
			subs[i].Deliver(serve.ShedResponse("shard saturated"))
		}
		for i := 0; i < m; i++ {
			subs[i] = serve.SubmitJob{}
		}
		b.sys.CheckPreempt()
	}
}

// kick follows a push into tgt's ring: signal tgt's intake and, once the
// ring holds enough to steal from, its siblings' too — a blocked thief
// cannot notice the backlog by itself.  A signal to an intake that is
// busy (one is already pending) costs a load.
func (fab *Fabric) kick(tgt *backend, mem *membership) {
	tgt.wake.Signal()
	if fab.opts.StealMin > 0 && tgt.ring.depth() >= fab.opts.StealMin {
		for _, o := range mem.shards {
			if o != tgt {
				o.wake.Signal()
			}
		}
	}
}
