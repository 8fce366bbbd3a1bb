// Package cml is a multiprocessor prototype of Concurrent ML (Reppy),
// which the paper reports building on top of MP: "MP has also been used to
// construct a multiprocessor prototype of Concurrent ML (CML), an ML
// dialect supporting threads, channels, synchronous communication events
// (e.g., CSP-style nondeterministic choice)."
//
// The event algebra is CML's: base events (channel send/receive, ivar and
// mvar reads, Always, Never) composed with Choose, Wrap and Guard, and
// committed with Sync.  The rendezvous protocol is the paper's Fig. 5
// committed-lock protocol: a syncing thread that must block creates one
// `committed` mutex lock shared by all of its registered base events; the
// first party to try-lock it wins the right to resume the thread, so the
// thread commits to exactly one branch of a choice.
//
// Like the paper's own prototype (whose protocol is receive-side
// nondeterministic choice, Figs. 4–5), choice is supported over
// *receive-like* events: RecvEvt, ReadEvt, TakeEvt, RecvMBEvt, Always,
// Never, and Wrap/Guard/Choose combinations of these.  SendEvt may be
// synchronized on its own (Send blocks until a receiver takes the value)
// but not combined under Choose: blocked senders are unconditional
// rendezvous offers in this protocol, and a sender with alternatives would
// need the two-phase commit of Reppy's full implementation.  Sync enforces
// the restriction with a clear panic.  The substitution is recorded in
// DESIGN.md.
package cml

import (
	"math/rand"

	"repro/internal/cont"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/queue"
)

// Protocol counters on the default registry, sharded by the syncing
// thread's id.  sends/receives count channel poll attempts (one per
// Sync per channel branch reached); commits count Syncs that completed;
// aborted_polls count committed-lock races lost against another branch.
var (
	mSyncs   = metrics.Default.Counter("cml.syncs")
	mSends   = metrics.Default.Counter("cml.sends")
	mRecvs   = metrics.Default.Counter("cml.receives")
	mCommits = metrics.Default.Counter("cml.commits")
	mAborts  = metrics.Default.Counter("cml.aborted_polls")
)

// commitRef identifies one syncing thread during its block phase: the
// shared committed lock, the thread id, and a resume hook that reschedules
// the thread's continuation with the event result.
type commitRef[T any] struct {
	committed core.Lock // nil for singleton non-selectable syncs
	id        int
	resume    func(T)
}

type blockKind int

const (
	parked       blockKind = iota // registered; wait for a partner
	committedNow                  // found a partner and committed ourselves
	already                       // some partner already committed us
)

type blockRes[T any] struct {
	kind blockKind
	val  T
}

// Event is a first-class synchronous operation yielding a T when
// synchronized.
type Event[T any] interface {
	// force evaluates Guard thunks, yielding a guard-free event.
	force(s core.Scheduler) Event[T]
	// poll attempts an immediate commit on behalf of a running thread.
	poll(s core.Scheduler) (T, bool)
	// block registers the syncing thread on the event's wait queues.
	block(s core.Scheduler, w commitRef[T]) blockRes[T]
	// selectable reports whether the event may appear under Choose.
	selectable() bool
}

// cachedID wraps a core.Scheduler so the repeated ID lookups inside one Sync
// (metric shards, wait-queue entries) resolve to a single goroutine-local
// read done at Sync entry.
type cachedID struct {
	core.Scheduler
	id int
}

func (c cachedID) ID() int { return c.id }

// Sync synchronizes on an event, blocking the calling thread until the
// event commits, and returns the event's result (CML: sync).
func Sync[T any](s core.Scheduler, ev Event[T]) T {
	self := s.ID()
	mSyncs.Inc(self)
	cs := cachedID{Scheduler: s, id: self}
	ev = ev.force(cs)
	if v, ok := ev.poll(cs); ok {
		mCommits.Inc(self)
		return v
	}
	return cont.Callcc(func(k *cont.Cont[T]) (none T) {
		w := commitRef[T]{id: self}
		if ev.selectable() {
			w.committed = core.NewMutexLock()
		}
		w.resume = func(v T) { s.Reschedule(core.Ready(k, v), w.id) }
		r := ev.block(cs, w)
		if r.kind == committedNow {
			mCommits.Inc(self)
			return r.val // implicit throw to k
		}
		// Parked, or already committed by a partner: either way the
		// continuation k is (or will be) scheduled by someone else.
		s.Dispatch()
		return none // to the carrier: Dispatch handed the proc on
	})
}

// Select synchronizes on the choice of the given events (CML: select).
func Select[T any](s core.Scheduler, evs ...Event[T]) T {
	return Sync(s, Choose(evs...))
}

// ---------------------------------------------------------------- always

type alwaysEvt[T any] struct{ v T }

// Always returns an event that is always ready with value v (CML:
// alwaysEvt).
func Always[T any](v T) Event[T] { return alwaysEvt[T]{v} }

func (e alwaysEvt[T]) force(core.Scheduler) Event[T] { return e }
func (e alwaysEvt[T]) poll(core.Scheduler) (T, bool) { return e.v, true }
func (e alwaysEvt[T]) selectable() bool              { return true }
func (e alwaysEvt[T]) block(s core.Scheduler, w commitRef[T]) blockRes[T] {
	if w.committed == nil || w.committed.TryLock() {
		return blockRes[T]{kind: committedNow, val: e.v}
	}
	return blockRes[T]{kind: already}
}

// ----------------------------------------------------------------- never

type neverEvt[T any] struct{}

// Never returns an event that is never ready (CML: neverEvt).
func Never[T any]() Event[T] { return neverEvt[T]{} }

func (e neverEvt[T]) force(core.Scheduler) Event[T] { return e }
func (e neverEvt[T]) poll(core.Scheduler) (T, bool) {
	var zero T
	return zero, false
}
func (e neverEvt[T]) selectable() bool { return true }
func (e neverEvt[T]) block(core.Scheduler, commitRef[T]) blockRes[T] {
	return blockRes[T]{kind: parked}
}

// ------------------------------------------------------------------ wrap

type wrapEvt[A, B any] struct {
	inner Event[A]
	f     func(A) B
}

// Wrap returns an event that applies f to ev's result (CML: wrap).
func Wrap[A, B any](ev Event[A], f func(A) B) Event[B] {
	return wrapEvt[A, B]{inner: ev, f: f}
}

func (e wrapEvt[A, B]) force(s core.Scheduler) Event[B] {
	return wrapEvt[A, B]{inner: e.inner.force(s), f: e.f}
}

func (e wrapEvt[A, B]) poll(s core.Scheduler) (B, bool) {
	if a, ok := e.inner.poll(s); ok {
		return e.f(a), true
	}
	var zero B
	return zero, false
}

func (e wrapEvt[A, B]) selectable() bool { return e.inner.selectable() }

func (e wrapEvt[A, B]) block(s core.Scheduler, w commitRef[B]) blockRes[B] {
	inner := commitRef[A]{
		committed: w.committed,
		id:        w.id,
		resume:    func(a A) { w.resume(e.f(a)) },
	}
	r := e.inner.block(s, inner)
	out := blockRes[B]{kind: r.kind}
	if r.kind == committedNow {
		out.val = e.f(r.val)
	}
	return out
}

// ----------------------------------------------------------------- guard

type guardEvt[T any] struct{ g func() Event[T] }

// Guard returns an event that evaluates g anew at each synchronization
// (CML: guard).
func Guard[T any](g func() Event[T]) Event[T] { return guardEvt[T]{g} }

func (e guardEvt[T]) force(s core.Scheduler) Event[T] { return e.g().force(s) }
func (e guardEvt[T]) poll(s core.Scheduler) (T, bool) { return e.force(s).poll(s) }
func (e guardEvt[T]) selectable() bool                { return true }
func (e guardEvt[T]) block(s core.Scheduler, w commitRef[T]) blockRes[T] {
	return e.force(s).block(s, w)
}

// ---------------------------------------------------------------- choose

type chooseEvt[T any] struct{ evs []Event[T] }

// Choose returns the nondeterministic choice of the given events (CML:
// choose).  Every branch must be receive-like; see the package comment.
func Choose[T any](evs ...Event[T]) Event[T] {
	return chooseEvt[T]{evs: evs}
}

func (e chooseEvt[T]) force(s core.Scheduler) Event[T] {
	out := make([]Event[T], len(e.evs))
	for i, ev := range e.evs {
		out[i] = ev.force(s)
		if !out[i].selectable() {
			panic("cml: send events cannot appear under Choose in this prototype" +
				" (the Fig. 5 protocol supports receive-side choice; see package doc)")
		}
	}
	return chooseEvt[T]{evs: out}
}

func (e chooseEvt[T]) selectable() bool {
	for _, ev := range e.evs {
		if !ev.selectable() {
			return false
		}
	}
	return true
}

func (e chooseEvt[T]) poll(s core.Scheduler) (T, bool) {
	for _, i := range rand.Perm(len(e.evs)) {
		if v, ok := e.evs[i].poll(s); ok {
			return v, true
		}
	}
	var zero T
	return zero, false
}

func (e chooseEvt[T]) block(s core.Scheduler, w commitRef[T]) blockRes[T] {
	if !e.selectable() {
		panic("cml: send events cannot appear under Choose in this prototype" +
			" (the Fig. 5 protocol supports receive-side choice; see package doc)")
	}
	for _, i := range rand.Perm(len(e.evs)) {
		if r := e.evs[i].block(s, w); r.kind != parked {
			return r
		}
	}
	return blockRes[T]{kind: parked}
}

// --------------------------------------------------------------- channel

// csndr is a blocked sender: an unconditional rendezvous offer.
type csndr[T any] struct {
	val    T
	resume func()
	id     int
}

// crcvr is a blocked receiver: guarded by the receiver's committed lock.
type crcvr[T any] struct {
	committed core.Lock
	resume    func(T)
	id        int
}

// Chan is a CML synchronous channel.
type Chan[T any] struct {
	lk    core.Lock
	sndrs queue.Queue[csndr[T]]
	rcvrs queue.Queue[crcvr[T]]
}

// NewChan creates a channel (CML: channel()).
func NewChan[T any]() *Chan[T] {
	return &Chan[T]{
		lk:    core.NewMutexLock(),
		sndrs: queue.NewFifo[csndr[T]](),
		rcvrs: queue.NewFifo[crcvr[T]](),
	}
}

type recvEvt[T any] struct{ ch *Chan[T] }

// RecvEvt returns the event of receiving a value from ch (CML: recvEvt).
func (ch *Chan[T]) RecvEvt() Event[T] { return recvEvt[T]{ch} }

func (e recvEvt[T]) force(core.Scheduler) Event[T] { return e }
func (e recvEvt[T]) selectable() bool              { return true }

func (e recvEvt[T]) poll(s core.Scheduler) (T, bool) {
	mRecvs.Inc(s.ID())
	ch := e.ch
	ch.lk.Lock()
	snd, err := ch.sndrs.Deq()
	ch.lk.Unlock()
	if err != nil {
		var zero T
		return zero, false
	}
	// Blocked senders are unconditional offers: taking one commits it.
	// The resume hook reschedules the sender's continuation itself.
	snd.resume()
	return snd.val, true
}

func (e recvEvt[T]) block(s core.Scheduler, w commitRef[T]) blockRes[T] {
	ch := e.ch
	ch.lk.Lock()
	if snd, err := ch.sndrs.Deq(); err == nil {
		if w.committed == nil || w.committed.TryLock() {
			ch.lk.Unlock()
			snd.resume()
			return blockRes[T]{kind: committedNow, val: snd.val}
		}
		// Some other branch already committed us; put the sender back.
		mAborts.Inc(w.id)
		ch.sndrs.Enq(snd)
		ch.lk.Unlock()
		return blockRes[T]{kind: already}
	}
	ch.rcvrs.Enq(crcvr[T]{committed: w.committed, resume: w.resume, id: w.id})
	ch.lk.Unlock()
	return blockRes[T]{kind: parked}
}

type sendEvt[T any] struct {
	ch *Chan[T]
	v  T
}

// SendEvt returns the event of sending v on ch (CML: sendEvt).  It may be
// synchronized alone but not combined under Choose; see the package doc.
func (ch *Chan[T]) SendEvt(v T) Event[core.Unit] { return sendEvt[T]{ch, v} }

func (e sendEvt[T]) force(core.Scheduler) Event[core.Unit] { return e }
func (e sendEvt[T]) selectable() bool                      { return false }

func (e sendEvt[T]) poll(s core.Scheduler) (core.Unit, bool) {
	self := s.ID()
	mSends.Inc(self)
	ch := e.ch
	ch.lk.Lock()
	for {
		r, err := ch.rcvrs.Deq()
		if err != nil {
			ch.lk.Unlock()
			return core.Unit{}, false
		}
		if r.committed == nil || r.committed.TryLock() {
			ch.lk.Unlock()
			r.resume(e.v)
			return core.Unit{}, true
		}
		// Stale receiver entry (committed via another channel): discard.
		mAborts.Inc(self)
	}
}

func (e sendEvt[T]) block(s core.Scheduler, w commitRef[core.Unit]) blockRes[core.Unit] {
	ch := e.ch
	ch.lk.Lock()
	for {
		r, err := ch.rcvrs.Deq()
		if err != nil {
			break
		}
		if r.committed == nil || r.committed.TryLock() {
			ch.lk.Unlock()
			r.resume(e.v)
			return blockRes[core.Unit]{kind: committedNow, val: core.Unit{}}
		}
		mAborts.Inc(w.id)
	}
	resume := w.resume
	ch.sndrs.Enq(csndr[T]{val: e.v, resume: func() { resume(core.Unit{}) }, id: w.id})
	ch.lk.Unlock()
	return blockRes[core.Unit]{kind: parked}
}

// Send sends v on the channel, blocking until it is received (CML: send).
func (ch *Chan[T]) Send(s core.Scheduler, v T) { Sync(s, ch.SendEvt(v)) }

// Recv receives a value from the channel, blocking until one is sent
// (CML: recv).
func (ch *Chan[T]) Recv(s core.Scheduler) T { return Sync(s, ch.RecvEvt()) }

// Spawn forks a new CML thread (CML: spawn).
func Spawn(s interface{ Fork(func()) }, f func()) { s.Fork(f) }
