package shard

// Elastic shard membership: shards as first-class acquirable/releasable
// resources, the paper's acquire_proc/release_proc lifted one level —
// where PR 3's rebalancer moves proc *allowance* between a fixed shard
// set, this layer adds and removes whole shards at runtime.
//
// The core is a versioned membership snapshot behind one atomic
// pointer: epoch, the dense array of active backends, and the
// consistent-hash ring whose owners index that array.  Every routing
// decision (connection hash, sticky key, topic) resolves against one
// snapshot — immutable once published, so the hot path takes no lock —
// and every policy decision is stamped with the epoch it read, to be
// discarded if a flip lands first.
//
// Membership changes are choreographed by the policy thread (an MP
// thread of the front system) with make-before-break ordering:
//
//   acquire: shrink the actives' allowances to (n+1)-member shares →
//     build the newcomer's whole world (platform, system, server,
//     broker, ring) → spawn its host goroutines via Options.Spawn →
//     probe it with a synthetic /healthz through its own forward ring →
//     hand off the topics the grown ring assigns to it → flip.
//
//   release: pick the victim (highest slot id) → mark it draining
//     (its intake stops stealing) → shrink it to one proc, survivors
//     share budget-1 → hand off every topic it owns → flip → grace →
//     detach → wait its ring dry → close the ring (stale-snapshot
//     pushes shed 503 like any full ring) → drain its server (the
//     OnDrain hook closes its broker) → wait its worlds exit → the
//     full budget returns to the survivors and the slot frees.
//
// Zero-loss invariants: a request already in a ring is always answered
// (the victim's intake keeps draining until its server drains, and a
// closed ring's shed is answered at the front); an acked pub/sub
// delivery is never lost (subscribers are registered on both brokers
// across the flip — pubsub/migrate.go — and each frame is fanned out by
// exactly one broker, so the overlap duplicates nothing).  The proc
// budget (Shards×BackendProcs at boot) is conserved across every
// membership: shares are computed from the budget, never accumulated.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gcsync"
	"repro/internal/mlheap"
	"repro/internal/proc"
	"repro/internal/pubsub"
	"repro/internal/serve"
	"repro/internal/syncx"
	"repro/internal/threads"
)

// lockFactory builds the locks on the fabric's cross-world hot paths —
// the forward rings (world = the member's ML world, nil without
// Options.MLAlloc) and the mux accept inbox (nil) — in the family
// Options.FairLocks selects.  On an ML member either family polls the
// GC section at every acquisition: the ring's two sides live in
// different worlds (front threads push, the member's procs pop), so
// whichever side waits mid-collection helps the copy or joins the
// barrier instead of convoying the stop — the MPL lockTake move.  Every
// contended fair claim's queue wait (in claim-loop yields) is charged
// to the shard.ring_wait_ticks histogram.  The observer reads fab.m
// lazily: backends and pollers are built before New populates the
// instrument struct, and nothing locks until the host starts the
// Runners.
func (fab *Fabric) lockFactory(world *gcsync.World) core.LockFactory {
	return syncx.LockFactory(fab.opts.FairLocks, world, func(iters int64) {
		if h := fab.m.ringWaitTicks; h != nil && iters > 0 {
			h.Observe(proc.Self(), iters)
		}
	})
}

// Backend lifecycle phases (backend.phase).
const (
	phaseJoining int32 = iota
	phaseActive
	phaseDraining
	phaseGone
)

func phaseName(p int32) string {
	switch p {
	case phaseJoining:
		return "joining"
	case phaseActive:
		return "active"
	case phaseDraining:
		return "draining"
	case phaseGone:
		return "gone"
	}
	return "unknown"
}

// ringVnodes is the virtual-point count per member slot; 64 keeps the
// per-member key share within a few percent of 1/N.
const ringVnodes = 64

// membership is one immutable snapshot of the active shard set.  The
// ring's owners index shards; shards[i].id is the stable slot the
// ring's vnodes are keyed on.
type membership struct {
	epoch  int64
	shards []*backend // active members, dense
	ring   *chashRing // owner values index shards
}

// home routes a connection-hash to an actives index.  Plain modulo, not
// the ring: un-keyed traffic has no stickiness to preserve, so the
// cheapest spread wins.
func (mem *membership) home(h uint32) int {
	return int(h % uint32(len(mem.shards)))
}

// Elastic reports whether membership can change at runtime: the fabric
// itself may start no goroutines (purity rule), so elasticity exists
// exactly when the host supplied Options.Spawn.
func (fab *Fabric) Elastic() bool { return fab.opts.Spawn != nil }

// Epoch returns the current membership epoch (starts at 1, +1 per flip).
func (fab *Fabric) Epoch() int64 { return fab.mem.Load().epoch }

// ActiveShards returns the current active member count.
func (fab *Fabric) ActiveShards() int { return len(fab.mem.Load().shards) }

// ownerOf reports the slot id of the member owning a sticky key under
// the current membership — the observable the movement-bound tests pin.
func (fab *Fabric) ownerOf(key string) int {
	mem := fab.mem.Load()
	return mem.shards[mem.ring.lookup(key)].id
}

// ScaleTo asks the policy thread to scale to n active shards; it
// returns immediately (scaling is asynchronous — watch /fabricz).
func (fab *Fabric) ScaleTo(n int) error {
	if !fab.Elastic() {
		return errNotElastic
	}
	if n < fab.opts.MinShards || n > fab.opts.MaxShards {
		return errScaleBounds
	}
	fab.scaleBox.Send(fab.frontSys, n)
	return nil
}

type scaleErr string

func (e scaleErr) Error() string { return string(e) }

const (
	errNotElastic  = scaleErr("fabric is not elastic (no Options.Spawn)")
	errScaleBounds = scaleErr("target outside [MinShards, MaxShards]")
)

// shares splits budget procs over n members: base share each, the
// remainder spread one-per-member from the front.
func shares(budget, n int) []int {
	sh := make([]int, n)
	base, rem := budget/n, budget%n
	for i := range sh {
		sh[i] = base
		if i < rem {
			sh[i]++
		}
	}
	return sh
}

// freeSlotLocked returns the smallest slot id below MaxShards not held
// by a live (non-gone) backend, or -1.  Caller holds fab.state.
func (fab *Fabric) freeSlotLocked() int {
	used := make([]bool, fab.opts.MaxShards)
	for _, b := range fab.backends {
		if b.phase.Load() != phaseGone && b.id < len(used) {
			used[b.id] = true
		}
	}
	for s, u := range used {
		if !u {
			return s
		}
	}
	return -1
}

// newBackend builds one shard's whole world — platform (capacity = the
// global budget, so rebalancing can grow it), thread system, server,
// forward ring, broker — without starting anything.  Handlers
// registered so far are replayed so a runtime-spawned shard serves the
// same routes as its boot-time siblings.
func (fab *Fabric) newBackend(slot, procs int) (*backend, error) {
	pl := proc.New(fab.budget)
	pl.SetLimit(procs)
	sys := threads.New(pl, threads.Options{Quantum: fab.opts.Quantum})
	// One ML world per member (Options.MLAlloc): its proc slots must
	// cover every handler thread that can be attached at once, which
	// admission bounds at MaxInFlight.
	var world *gcsync.World
	if fab.opts.MLAlloc {
		slots := fab.opts.MaxInFlight
		if slots <= 0 {
			slots = 64 // serve's MaxInFlight default
		}
		world = gcsync.NewWorld(mlheap.Config{
			NurseryWords: fab.opts.MLNursery,
			SemiWords:    fab.opts.MLSemi,
			ChunkWords:   fab.opts.MLChunk,
			RegionWords:  fab.opts.MLRegion,
			Procs:        slots,
		})
	}
	srv, err := serve.New(sys, serve.Options{
		NoListener:         true,
		ShardID:            slot,
		MLWorld:            world,
		FairLocks:          fab.opts.FairLocks,
		MaxInFlight:        fab.opts.MaxInFlight,
		QueueDepth:         fab.opts.QueueDepth,
		DeadlineTicks:      fab.opts.DeadlineTicks,
		DispatchBatch:      fab.opts.BatchMax,
		KeepAliveIdleTicks: fab.opts.IdleTicks,
		Tick:               fab.opts.Tick,
		Log:                fab.logrt,
		LogPolicy:          fab.logpol,
		ExtraMetrics:       []serve.NamedRegistry{{Name: "front", Reg: fab.frontSys.Metrics()}},
	})
	if err != nil {
		return nil, err
	}
	var broker *pubsub.Broker
	if fab.opts.PubSub {
		broker = pubsub.New(sys, srv.Clock(), sys.Metrics(), pubsub.Options{
			TenantHeader: fab.opts.TenantHeader,
			StreamDepth:  fab.opts.StreamDepth,
			QuotaPerSec:  fab.opts.TenantQuota,
			Tick:         fab.opts.Tick,
			SubIDs:       &fab.subIDs,
		})
		pubsub.Install(srv, broker)
	}
	b := &backend{
		id: slot, pl: pl, sys: sys, srv: srv,
		ring:   newRing(fab.opts.RingDepth, fab.lockFactory(world)()),
		broker: broker, world: world,
		wake: threads.NewWake(),
	}
	// Drain must reach an intake blocked on an empty ring: it waits for
	// events, not for the clock, so the event has to be sent.
	srv.OnDrain(b.wake.Signal)
	b.phase.Store(phaseJoining)
	fab.state.Lock()
	fab.limits[slot] = procs // keep the policy thread's bookkeeping view in step
	hs := append([]handlerEntry(nil), fab.handlers...)
	fab.state.Unlock()
	for _, he := range hs {
		srv.Handle(he.pattern, he.h)
	}
	return b, nil
}

// backendRunners returns shard b's host entry points (serve world +
// broker world), each wrapped to track b.live so release can wait for
// the worlds to actually exit.  live is incremented here, before any
// goroutine starts, so a zero read always means "everything exited".
func (fab *Fabric) backendRunners(b *backend) []func() {
	b.live.Add(1)
	rs := []func(){func() {
		b.sys.Run(func() {
			b.srv.Serve()
			fab.intake(b) // the root thread becomes the ring intake
		})
		b.live.Add(-1)
	}}
	if b.broker != nil {
		b.live.Add(1)
		run := b.broker.Runner()
		rs = append(rs, func() {
			run()
			b.live.Add(-1)
		})
	}
	return rs
}

// probe pushes a synthetic /healthz through the newcomer's forward ring
// and blocks for the answer — proof the whole path (ring, intake,
// admission, dispatch, builtin handler, reply cell, wake) is live before
// any client traffic can route there.  The answer always comes: a job in
// a ring is answered even when the fabric drains mid-join.
func (fab *Fabric) probe(b *backend) bool {
	grp := replyGroup{wake: threads.NewWake()}
	grp.open()
	cell := reply{grp: &grp}
	if b.ring.pushN([]job{{
		req:       &serve.Request{Method: "GET", Path: "/healthz", Proto: "HTTP/1.1"},
		remaining: fab.opts.DeadlineTicks,
		pushed:    fab.clock.Now(),
		rep:       &cell,
	}}) == 0 {
		return false
	}
	b.wake.Signal()
	if !grp.seal(1) {
		fab.frontSys.Await(grp.wake)
	}
	return cell.resp.Status == 200
}

// setShares applies a share vector to the given members: limits under
// the state lock first (the policy thread's bookkeeping view), then the
// platform SetLimits — shrinks land at the members' procs' next safe
// points, growths are immediate headroom.
func (fab *Fabric) setShares(members []*backend, sh []int) {
	fab.state.Lock()
	for i, b := range members {
		fab.limits[b.id] = sh[i]
	}
	fab.state.Unlock()
	for i, b := range members {
		b.pl.SetLimit(sh[i])
	}
}

// addShard acquires one shard: the runtime half of the paper's
// acquire_proc, at shard granularity.  Returns false when the fabric is
// draining, at MaxShards, or the newcomer could not be built.
func (fab *Fabric) addShard() bool {
	old := fab.mem.Load()
	n := len(old.shards) + 1
	if n > fab.opts.MaxShards {
		return false
	}
	fab.state.Lock()
	if fab.draining {
		fab.state.Unlock()
		return false
	}
	slot := fab.freeSlotLocked()
	fab.state.Unlock()
	if slot < 0 {
		return false
	}
	sh := shares(fab.budget, n)
	b, err := fab.newBackend(slot, sh[n-1])
	if err != nil {
		return false
	}
	// Make before break: the incumbents shrink to their n-member shares
	// before the newcomer's allowance exists, so the budget is never
	// exceeded even transiently.
	fab.setShares(old.shards, sh[:n-1])
	fab.state.Lock()
	fab.backends = append(fab.backends, b)
	rs := fab.backendRunners(b)
	fab.state.Unlock()
	for _, r := range rs {
		fab.opts.Spawn(r)
	}
	if !fab.probe(b) {
		return false // draining mid-join; supervise drains b with the rest
	}
	actives := make([]*backend, 0, n)
	actives = append(append(actives, old.shards...), b)
	fab.flipTo(old, actives)
	b.phase.Store(phaseActive)
	fab.m.memberJoins.Inc(proc.Self())
	return true
}

// removeShard releases one shard with zero-loss drain-out.  Returns
// false when the fabric is draining or at MinShards.
func (fab *Fabric) removeShard() bool {
	old := fab.mem.Load()
	if len(old.shards) <= fab.opts.MinShards {
		return false
	}
	// Victim: the active with the highest slot id — deterministic, and
	// it frees the largest slot for reuse.
	vi := 0
	for i, b := range old.shards {
		if b.id > old.shards[vi].id {
			vi = i
		}
	}
	victim := old.shards[vi]
	fab.state.Lock()
	if fab.draining {
		fab.state.Unlock()
		return false
	}
	fab.state.Unlock()
	// Draining phase first: the victim's intake stops stealing work in,
	// before anything else changes.
	victim.phase.Store(phaseDraining)
	actives := make([]*backend, 0, len(old.shards)-1)
	for i, b := range old.shards {
		if i != vi {
			actives = append(actives, b)
		}
	}
	// The victim keeps one proc to drain with; survivors share the rest.
	fab.setShares(actives, shares(fab.budget-1, len(actives)))
	fab.setShares([]*backend{victim}, []int{1})

	fab.flipTo(old, actives)

	// The ring must empty before it closes (a job in a ring is always
	// answered), and must be checked again after — a front thread's push
	// from a stale snapshot can land between the check and the close.
	// After the close, late pushes shed 503 at the front like any full
	// ring, and the intake drains what landed.
	for victim.ring.depth() > 0 {
		if fab.Draining() {
			return false
		}
		fab.park(1)
	}
	victim.ring.close()
	for victim.ring.depth() > 0 {
		if fab.Draining() {
			return false
		}
		fab.park(1)
	}
	// Drain the victim's server: queued and in-flight requests finish,
	// the OnDrain hook closes its broker (whose topics were handed off
	// above; stragglers' streams close with the chunked terminator), the
	// intake exits, and the worlds quiesce.
	victim.srv.Drain()
	for victim.live.Load() > 0 {
		if fab.Draining() {
			return false
		}
		fab.park(1)
	}
	victim.phase.Store(phaseGone)
	fab.state.Lock()
	fab.limits[victim.id] = 0 // the slot holds no allowance until reused
	fab.state.Unlock()
	// The full budget returns to the survivors; the slot is free.
	fab.setShares(actives, shares(fab.budget, len(actives)))
	fab.m.memberLeaves.Inc(proc.Self())
	return true
}

// flipTo publishes the new membership: hand off every topic whose owner
// changes (registered on both brokers across the flip), store the new
// snapshot, wait the grace window for stale-snapshot traffic to drain,
// then detach the moved topics from their old owners.
func (fab *Fabric) flipTo(old *membership, actives []*backend) {
	slots := make([]int, len(actives))
	for i, b := range actives {
		slots[i] = b.id
	}
	next := &membership{
		epoch:  old.epoch + 1,
		shards: actives,
		ring:   newChashRing(slots, ringVnodes),
	}
	migs := fab.beginHandoffs(old, next)
	fab.mem.Store(next)
	fab.m.epochFlips.Inc(proc.Self())
	if len(migs) > 0 {
		fab.park(fab.opts.HandoffGraceTicks)
		fab.finishHandoffs(migs)
	}
}

// handoff is one topic mid-migration: the source-side handle plus
// whether the destination accepted (it refuses only when draining, in
// which case the subscribers stay owned — and are closed — by the
// source).
type handoff struct {
	src *pubsub.Broker
	mig *pubsub.Migration
	ok  bool
}

// beginHandoffs tombstones and re-registers every topic whose owner
// changes between old and next.  On return each moved topic's
// subscribers are registered with BOTH brokers: whichever side a
// publish lands on during the flip fans out to all of them, exactly
// once (one broker runs each publish).  Publishes reaching the source
// after its tombstone answer 409 — the brief, retryable unavailability
// window the bench measures as the dip.
func (fab *Fabric) beginHandoffs(old, next *membership) []handoff {
	if !fab.opts.PubSub {
		return nil
	}
	self := proc.Self()
	var hs []handoff
	for _, src := range old.shards {
		for _, name := range src.broker.TopicNames() {
			dst := next.shards[next.ring.lookup(name)]
			if dst == src {
				continue
			}
			mig := src.broker.BeginMigrate(name)
			for !mig.Peeked() && !mig.Detached() {
				if fab.Draining() {
					return hs
				}
				fab.park(1)
			}
			subs := mig.Subs()
			ho := dst.broker.Adopt(name, subs)
			for !ho.Done() {
				if fab.Draining() {
					return hs
				}
				fab.park(1)
			}
			hs = append(hs, handoff{src: src.broker, mig: mig, ok: ho.OK()})
			fab.m.handoffTopics.Inc(self)
			fab.m.handoffSubs.Add(self, int64(len(subs)))
		}
	}
	return hs
}

// finishHandoffs detaches each moved topic from its old owner once its
// in-flight control messages have settled — after this no old-owner
// fan-out can exist, so forgetting the subscribers (without closing
// their streams) completes the zero-loss handoff.
func (fab *Fabric) finishHandoffs(hs []handoff) {
	for _, h := range hs {
		if !h.ok {
			continue // destination was draining; source keeps the subs
		}
		for !h.mig.Quiesced() {
			if fab.Draining() {
				return
			}
			fab.park(1)
		}
		h.src.Detach(h.mig)
		for !h.mig.Detached() {
			if fab.Draining() {
				return
			}
			fab.park(1)
		}
	}
}

// scaleTo walks membership one shard at a time toward n, counting each
// applied step.  Runs on the policy thread.
func (fab *Fabric) scaleTo(n int) {
	self := proc.Self()
	for {
		cur := len(fab.mem.Load().shards)
		if cur == n || fab.Draining() {
			return
		}
		if n > cur {
			if !fab.addShard() {
				return
			}
			fab.m.scaleUps.Inc(self)
		} else {
			if !fab.removeShard() {
				return
			}
			fab.m.scaleDowns.Inc(self)
		}
	}
}

// scaleResponse answers the admin /scale endpoint (front-inline, like
// /fabricz): GET /scale?shards=N requests a manual scale event.
func (fab *Fabric) scaleResponse(req *serve.Request) serve.Response {
	if !fab.Elastic() {
		return serve.Response{Status: 400, Body: []byte("fabric is not elastic (start with -autoscale or a Spawn hook)\n")}
	}
	n := req.QueryInt("shards", -1)
	if n < fab.opts.MinShards || n > fab.opts.MaxShards {
		return serve.Response{Status: 400, Body: []byte(fmt.Sprintf(
			"shards must be in [%d, %d]\n", fab.opts.MinShards, fab.opts.MaxShards))}
	}
	if n == len(fab.mem.Load().shards) {
		return serve.Response{Status: 200, Body: []byte(fmt.Sprintf("already at %d shards\n", n))}
	}
	fab.scaleBox.Send(fab.frontSys, n)
	return serve.Response{Status: 202, Body: []byte(fmt.Sprintf("scaling to %d shards\n", n))}
}
