// Package cont implements first-class one-shot continuations, the
// process-saving mechanism (à la Wand) on which every MP client in the
// paper is built.
//
// SML/NJ continuations are heap-allocated and in principle multi-shot.  Go
// cannot re-enter a stack frame, so a continuation here is a parked
// goroutine plus a resume channel, and throwing hands control, together
// with the thrower's proc baton, to the parked goroutine.  Every
// continuation in the paper's client code (the thread packages of Figs. 1
// and 3, the selective-communication protocol of Fig. 5, and CML) is
// invoked at most once, so one-shot semantics suffice; a second throw to
// the same continuation panics.
//
// What keeps capture near the paper's "callcc just allocates a closure" is
// that the goroutine a body runs on is not made for it.  Every platform
// goroutine is a carrier: it starts in Go, runs one job — a Callcc body, a
// proc's root, a dispatch loop — and when the job ends, by returning or by
// the Throw/Exit unwind, it clears its baton and waits on a bounded LIFO
// free list for the next job, keeping the stack the last one grew.  Go
// takes the most recently idled carrier and falls back to a fresh
// goroutine only when none is idle; a carrier that finds the list full
// exits.  So a capture costs one resume channel and two goroutine
// switches, and a goroutine's life is a sequence of jobs, in each of which
// it is either running under a baton or parked as somebody's continuation.
//
// Control-flow contract:
//
//   - Callcc(body) runs body on the current proc.  If body returns a value
//     v, Callcc returns v (the implicit throw of SML semantics).  If some
//     proc later throws v to the captured continuation, Callcc returns v on
//     *that* proc: the baton travels with control.
//   - Throw never returns.  It terminates the calling job by panicking with
//     a private sentinel that the carrier's per-job frame recovers; user
//     defer statements on the abandoned path do run.
//   - Resume is Throw for code in tail position — a scheduler handing its
//     proc to the thread it just dequeued.  It returns, to a caller that no
//     longer holds a baton, may make no MP call, and has nothing left to do
//     but return to its carrier; a Callcc body that comes back without its
//     baton has transferred control and is not thrown for implicitly.
//
// Which of the two a caller uses is a rule: every scheduler transfer — a
// dispatch, a wake-up's ready thunk, a proc's idle leave — returns, and
// only client code unwinds: a Throw of its own, a thread's exit at
// arbitrary depth, or release_proc (Exit).
//
// A goroutine parked in Callcc (or Suspend) whose continuation is never
// thrown is leaked, and its carrier with it: it is mid-job and never
// reaches the free list.  SML/NJ garbage-collects unreachable threads; Go
// cannot, so clients must resume or deliberately abandon (process-exit)
// every captured continuation.  This substitution is recorded in DESIGN.md.
package cont

import (
	"sync/atomic"

	"repro/internal/gls"
)

// Unit is SML's unit type; a Cont[Unit] is the paper's `unit cont`.
type Unit struct{}

type msg[T any] struct {
	v     T
	baton any
}

// Cont is a one-shot first-class continuation carrying a value of type T.
type Cont[T any] struct {
	resume chan msg[T]
	used   atomic.Bool
}

func newCont[T any]() *Cont[T] {
	return &Cont[T]{resume: make(chan msg[T], 1)} // one slot: a throw never waits for its target to park
}

// Used reports whether the continuation has already been resumed.
func (k *Cont[T]) Used() bool { return k.used.Load() }

// send resumes k with v under baton b; the one-shot check lives here.
func (k *Cont[T]) send(v T, b any) {
	if !k.used.CompareAndSwap(false, true) {
		panic("cont: continuation resumed more than once")
	}
	k.resume <- msg[T]{v, b}
}

// wait parks the calling goroutine as k and adopts the thrower's baton.
func (k *Cont[T]) wait() T {
	m := <-k.resume
	gls.Set(m.baton)
	return m.v
}

// exitSignal unwinds a job abandoned by Throw, Exit or proc release.
type exitSignal struct{}

// Callcc captures the current continuation as k and evaluates body(k),
// mirroring SML's `callcc (fn k => body)`.  It must be called by a
// goroutine holding a proc baton (i.e. from inside Platform.Run).
func Callcc[T any](body func(k *Cont[T]) T) T {
	baton, ok := gls.Get()
	if !ok {
		panic("cont: Callcc invoked outside the MP platform")
	}
	k := newCont[T]()
	Go(baton, func() {
		v := body(k)
		// Falling off the body is SML's implicit throw to k — unless the
		// body already gave its baton, and with it control, away (Resume).
		if b, held := gls.Get(); held {
			k.send(v, b)
		}
	})
	return k.wait()
}

// Resume hands control, and the calling goroutine's baton, to k, and
// returns: Throw for a caller in tail position, spared the unwind.  After
// it the caller holds no baton; it must make no MP call and return to its
// carrier.
func Resume[T any](k *Cont[T], v T) {
	b, _ := gls.Get()
	k.send(v, b)
	gls.Del()
}

// Throw resumes k with v, transferring the current proc to the resumed
// code.  It never returns; the calling job is unwound.
func Throw[T any](k *Cont[T], v T) {
	Resume(k, v)
	panic(exitSignal{})
}

// Exit unwinds the current job without resuming anything.  The proc
// layer uses it to implement release_proc, whose ML type is `unit -> 'a`
// precisely because it never returns.
func Exit() {
	panic(exitSignal{})
}

// IsExit reports whether a recovered panic value is the package's private
// unwind sentinel, for goroutine roots created outside this package.
func IsExit(r any) bool {
	_, ok := r.(exitSignal)
	return ok
}

// Start resumes k with v under baton b.  The proc layer uses it to set an
// acquired proc executing a client continuation (paper §3.1: "an existing
// proc can start a new proc executing in parallel by invoking acquire_proc
// with the continuation to be executed").
func Start[T any](k *Cont[T], v T, b any) { k.send(v, b) }

// Suspend parks the calling goroutine as the continuation k — without
// Callcc's second goroutine, because the caller holds no baton for a
// body to run under: register(k) runs right here, and the goroutine
// then waits to be thrown to, adopting the thrower's baton as Callcc
// does.  The thread layer uses it for a thread that returns from an OS
// call to a full proc allowance and must queue like any ready thread.
func Suspend[T any](register func(k *Cont[T])) T {
	k := newCont[T]()
	register(k)
	return k.wait()
}

// job is one unit of work for a carrier: f, run under baton b.
type job struct {
	b any
	f func()
}

// Go runs f on a carrier whose baton is b, absorbing the Throw/Exit
// unwind f ends in (f may also simply return).  It is Start for a
// continuation that is plain code rather than a captured stack: the proc
// layer starts the root proc this way, and a thread package starts a proc
// on its dispatch loop.
func Go(b any, f func()) {
	j := job{b, f}
	if c := idle.pop(); c != nil {
		c.work <- j
		return
	}
	c := &carrier{work: make(chan job, 1)} // one slot: Go never waits for the carrier to park
	go c.loop(j)
}

// carrier is a platform goroutine between and across jobs.
type carrier struct {
	work chan job
}

func (c *carrier) loop(j job) {
	for {
		j.run()
		if !idle.push(c) {
			return
		}
		j = <-c.work
	}
}

// run is the per-job frame: it installs the baton, recovers the unwind a
// job may end in, and leaves the goroutine holding no baton however the
// job ended — an idle carrier must not, or the next job (or quiescence
// accounting) would see its predecessor's.  Any other panic propagates.
func (j job) run() {
	gls.Set(j.b)
	defer func() {
		gls.Del()
		if r := recover(); r != nil && !IsExit(r) {
			panic(r)
		}
	}()
	j.f()
}

// maxIdle bounds the free list, and so the goroutines (and grown stacks)
// the package retains beyond those mid-job.  Steady-state demand is a few
// carriers per proc — one capture in flight each — so the bound is for
// bursts: deep enough that a wave of threads finishing together is still
// there for the wave that follows, small enough that the retained stacks
// do not show in the process's footprint.
const maxIdle = 32

// idle is the free list: a LIFO so that the carrier reused is the one
// whose stack is hottest and the ones at the bottom stay cold (the
// runtime shrinks the stack of a goroutine it finds parked and shallow).
var idle = newFreeList()

// freeList is a bounded lock-free LIFO of carriers.  A carrier is listed
// through one of maxIdle seats, and the seats move between two Treiber
// stacks — vacant, and occupied in LIFO order — so the bound is the
// number of seats and nothing is allocated or locked per push or pop.
//
// A stack's head packs its top seat beside a count of pops: without the
// count, a pop that loaded its seat's successor and then lost the
// processor while that seat was popped and pushed back over a different
// successor would install the stale one (ABA).
type freeList struct {
	seats            [maxIdle + 1]seat // seat 0 is "none": an empty stack's top, the bottom seat's successor
	vacant, occupied atomic.Uint64     // pops<<32 | top seat
}

type seat struct {
	next atomic.Uint32 // the seat below this one on its stack
	c    *carrier      // written by the pusher that holds the seat, read by the popper that takes it
}

func newFreeList() *freeList {
	l := new(freeList)
	for i := uint32(1); i <= maxIdle; i++ {
		l.pushSeat(&l.vacant, i)
	}
	return l
}

func (l *freeList) pushSeat(head *atomic.Uint64, i uint32) {
	for {
		h := head.Load()
		l.seats[i].next.Store(uint32(h))
		if head.CompareAndSwap(h, h>>32<<32|uint64(i)) {
			return
		}
	}
}

func (l *freeList) popSeat(head *atomic.Uint64) uint32 {
	for {
		h := head.Load()
		i := uint32(h)
		if i == 0 {
			return 0
		}
		if head.CompareAndSwap(h, (h>>32+1)<<32|uint64(l.seats[i].next.Load())) {
			return i
		}
	}
}

// push lists c as idle, or reports false when maxIdle carriers already are.
func (l *freeList) push(c *carrier) bool {
	i := l.popSeat(&l.vacant)
	if i == 0 {
		return false
	}
	l.seats[i].c = c
	l.pushSeat(&l.occupied, i)
	return true
}

// pop takes the most recently idled carrier, or nil.
func (l *freeList) pop() *carrier {
	i := l.popSeat(&l.occupied)
	if i == 0 {
		return nil
	}
	c := l.seats[i].c
	l.seats[i].c = nil
	l.pushSeat(&l.vacant, i)
	return c
}
