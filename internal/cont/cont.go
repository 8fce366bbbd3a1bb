// Package cont implements first-class one-shot continuations, the
// process-saving mechanism (à la Wand) on which every MP client in the
// paper is built.
//
// SML/NJ continuations are heap-allocated and in principle multi-shot.  Go
// cannot re-enter a stack frame, so a continuation here is a parked
// goroutine plus a resume channel: capturing is cheap (one goroutine, one
// channel — the moral equivalent of "callcc just allocates a closure") and
// throwing hands control, together with the thrower's proc baton, to the
// parked goroutine.  Every continuation in the paper's client code (the
// thread packages of Figs. 1 and 3, the selective-communication protocol of
// Fig. 5, and CML) is invoked at most once, so one-shot semantics suffice;
// a second throw to the same continuation panics.
//
// Control-flow contract:
//
//   - Callcc(body) runs body on the current proc.  If body returns a value
//     v, Callcc returns v (the implicit throw of SML semantics).  If some
//     proc later throws v to the captured continuation, Callcc returns v on
//     *that* proc: the baton travels with control.
//   - Throw never returns.  It terminates the calling goroutine by
//     panicking with a private sentinel that the package's own goroutine
//     roots recover; user defer statements on the abandoned path do run.
//
// A goroutine parked in Callcc whose continuation is never thrown is
// leaked.  SML/NJ garbage-collects unreachable threads; Go cannot, so
// clients must resume or deliberately abandon (process-exit) every captured
// continuation.  This substitution is recorded in DESIGN.md.
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

// Used reports whether the continuation has already been resumed.
func (k *Cont[T]) Used() bool { return k.used.Load() }

// exitSignal unwinds a goroutine abandoned by Throw, Exit or proc release.
type exitSignal struct{}

// Callcc captures the current continuation as k and evaluates body(k),
// mirroring SML's `callcc (fn k => body)`.  It must be called by a
// goroutine holding a proc baton (i.e. from inside Platform.Run).
func Callcc[T any](body func(k *Cont[T]) T) T {
	baton, ok := gls.Get()
	if !ok {
		panic("cont: Callcc invoked outside the MP platform")
	}
	k := &Cont[T]{resume: make(chan msg[T], 1)}
	// Falling off the body is SML's implicit throw to k.
	Go(baton, func() { deliver(k, body(k)) })
	m := <-k.resume
	gls.Set(m.baton)
	return m.v
}

func deliver[T any](k *Cont[T], v T) {
	if !k.used.CompareAndSwap(false, true) {
		panic("cont: continuation resumed more than once")
	}
	baton, _ := gls.Get()
	k.resume <- msg[T]{v, baton}
}

// Throw resumes k with v, transferring the current proc to the resumed
// code.  It never returns; the calling goroutine is unwound.
func Throw[T any](k *Cont[T], v T) {
	deliver(k, v)
	panic(exitSignal{})
}

// Exit unwinds the current goroutine without resuming anything.  The proc
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

// Start resumes k with v on a fresh goroutine whose baton is b.  The proc
// layer uses it to set an acquired proc executing a client continuation
// (paper §3.1: "an existing proc can start a new proc executing in
// parallel by invoking acquire_proc with the continuation to be executed").
func Start[T any](k *Cont[T], v T, b any) {
	Go(b, func() { deliver(k, v) })
}

// Go runs f on a fresh goroutine whose baton is b, absorbing the
// Throw/Exit unwind f ends in (f may also simply return).  It is Start
// for a continuation that is plain code rather than a captured stack:
// the proc layer starts the root proc this way, and a thread package
// starts a proc on its dispatch loop.
func Go(b any, f func()) {
	go func() {
		gls.Set(b)
		defer func() {
			gls.Del()
			if r := recover(); r != nil && !IsExit(r) {
				panic(r)
			}
		}()
		f()
	}()
}

// Suspend parks the calling goroutine as the continuation k — without
// Callcc's second goroutine, because the caller holds no baton for a
// body to run under: register(k) runs right here, and the goroutine
// then waits to be thrown to, adopting the thrower's baton as Callcc
// does.  The thread layer uses it for a thread that returns from an OS
// call to a full proc allowance and must queue like any ready thread.
func Suspend[T any](register func(k *Cont[T])) T {
	k := &Cont[T]{resume: make(chan msg[T], 1)}
	register(k)
	m := <-k.resume
	gls.Set(m.baton)
	return m.v
}
