// Package core is the MP platform of Morrisett & Tolmach (PPoPP 1993),
// "Procs and Locks: A Portable Multiprocessing Platform for Standard ML of
// New Jersey" — the paper's primary contribution, §3.
//
// From the point of view of a thread system, or client, MP consists of a
// processor abstraction (Proc) and a mutex lock abstraction (Lock);
// together with first-class continuations (package cont, re-exported
// here), these facilities suffice to implement multiprocessor thread
// packages in a machine-independent fashion:
//
//	signature PROC = sig                      signature LOCK = sig
//	    type proc_datum                           type mutex_lock
//	    datatype proc_state =                     val mutex_lock: unit -> mutex_lock
//	        PS of (unit cont * proc_datum)        val try_lock : mutex_lock -> bool
//	    val acquire_proc: proc_state -> unit      val lock     : mutex_lock -> unit
//	    exception No_More_Procs                   val unlock   : mutex_lock -> unit
//	    val release_proc: unit -> 'a          end
//	    val initial_datum : proc_datum
//	    val get_datum : unit -> proc_datum
//	    val set_datum : proc_datum -> unit
//	end
//
// All heap memory is implicitly shared among all procs; mutex locks provide
// elementary exclusion, and more elaborate synchronization (reader/writer
// locks, semaphores, channels — see packages syncx, sel and cml) is
// synthesized from mutex locks, shared variables, and continuations.
//
// The paper's portability claim is that clients are built on this surface
// alone: port the platform, and every client follows.  The repository's
// clients (internal/threads, internal/sel, internal/cml, internal/syncx,
// and the serving packages above them) do not yet keep to it: 33 non-test
// files under internal/ besides the platform's own import proc, cont or
// spinlock directly, and what they take from core is its types, the lock
// constructor, Scheduler and Ready.
package core

import (
	"repro/internal/cont"
	"repro/internal/proc"
	"repro/internal/spinlock"
)

// Unit is SML's unit type.
type Unit = cont.Unit

// Cont is a first-class one-shot continuation carrying a T (SML's
// 'a cont).
type Cont[T any] = cont.Cont[T]

// UnitCont is the paper's `unit cont`, the type of suspended procs and
// threads.
type UnitCont = cont.Cont[Unit]

// Platform manages procs; see proc.Platform.
type Platform = proc.Platform

// PS is the paper's proc_state: a unit continuation paired with the
// client-defined proc datum.
type PS = proc.PS

// ErrNoMoreProcs is the exception No_More_Procs.
var ErrNoMoreProcs = proc.ErrNoMoreProcs

// NewPlatform returns a platform providing at most maxProcs procs.
func NewPlatform(maxProcs int) *Platform { return proc.New(maxProcs) }

// GetDatum returns the calling proc's private datum.
func GetDatum() any { return proc.GetDatum() }

// SetDatum overwrites the calling proc's private datum.
func SetDatum(d any) { proc.SetDatum(d) }

// Self returns the calling proc's id.
func Self() int { return proc.Self() }

// Callcc captures the current continuation, as SML/NJ's callcc.
func Callcc[T any](body func(k *cont.Cont[T]) T) T { return cont.Callcc(body) }

// Throw invokes a captured continuation with a value; it never returns.
func Throw[T any](k *cont.Cont[T], v T) { cont.Throw(k, v) }

// Scheduler is the slice of a thread package that synchronization
// clients (packages syncx, sel and cml) need: Fig. 5 calls reschedule,
// dispatch and get_datum, nothing more.  threads.System implements it.
//
// Every transfer through it returns.  Reschedule queues run, which hands
// the proc that dispatches it to a parked thread (normally a Ready thunk).
// Dispatch hands the calling proc to a ready thread, or gives it up if
// none is ready, and returns to a caller that then holds no proc: it must
// make no MP call and has nothing left to do but return to its carrier —
// typically by returning from the Callcc body it parked itself in.
type Scheduler interface {
	Reschedule(run func(), id int)
	Dispatch()
	ID() int
}

// Ready is the paper's reschedule_thread (Fig. 5): it binds v into the
// parked continuation k and returns the thunk a ready queue holds for it.
// Run by a dispatching proc, the thunk hands that proc to k and returns
// (cont.Resume), so the dispatcher is not unwound.
func Ready[T any](k *cont.Cont[T], v T) func() {
	return func() { cont.Resume(k, v) }
}

// Lock is the paper's mutex_lock abstraction.
type Lock = spinlock.Lock

// LockFactory creates fresh locks; clients are parameterized by one.
type LockFactory = spinlock.Factory

// NewMutexLock returns a fresh lock in unlocked state (paper: mutex_lock).
// The default flavor is TTAS with exponential backoff, the strategy the
// paper cites Anderson for; other flavors live in package spinlock.
func NewMutexLock() Lock { return spinlock.NewBackoff() }
