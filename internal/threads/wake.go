package threads

import (
	"sync/atomic"
	"time"

	"repro/internal/cont"
	"repro/internal/core"
	"repro/internal/proc"
)

// The paper's two rules for idleness (Fig. 3 — dispatch releases the
// proc when the ready queue is empty; fork tries acquire_proc before it
// queues) need spelling out at two more places in a Go realization: an
// enqueue from outside the system, and a thread coming back from a
// blocking call.  The invariant both serve:
//
//	ready queue non-empty ∧ idle slot ⇒ a proc is running or being started
//
// A proc of the system upholds it by dispatching; wake upholds it for
// everyone who enqueues without a dispatch to follow.

// wake is Fig. 3's fork rule for an enqueue: if a slot is idle a proc is
// acquired to run Dispatch rather than leaving the thread to wait for
// some running proc's next dispatch.  For an enqueue made from outside
// the system — a release performed by another world's proc, a thread
// coming back from Blocking, a proc handed back on the way in — no such
// dispatch is promised at all, and wake is what upholds the invariant.
// A saturated system pays one atomic load.
func (s *System) wake() {
	if !s.pl.Idle() || !s.pending() {
		return
	}
	if s.pl.AcquireFunc(s.loop, 0) == nil && !s.pl.Holds() {
		self, _ := proc.TrySelf()
		s.wakes.Inc(self)
	}
}

// Blocking runs f — one bare OS call: a socket read or write, an
// accept, a sleep, a poller wait — with no proc held, so a thread
// waiting in the kernel costs its system nothing: the caller's proc is
// released (and restarted on Dispatch if ready threads are queued), f
// runs, and the thread continues on a proc again — at once if a slot is
// idle, else queued as any ready thread.  f must make no MP call.
func (s *System) Blocking(f func()) {
	id := s.ID()
	s.pl.Block()
	s.wake() // the slot just vacated may be the one queued work waits for
	f()
	if s.pl.Unblock(id) {
		return
	}
	// Every slot was taken meanwhile: come back as an ordinary ready
	// thread.  Still counted as blocked until queued *and* woken for, so
	// the platform cannot quiesce around the entry.
	cont.Suspend(func(k *core.UnitCont) {
		s.reschedule(0, core.Ready(k, core.Unit{}), id, 0)
		s.wake()
		s.pl.Requeued()
	})
}

// mustHaveLeft is dispatch's check on an Entry.Run that came back: it
// must have given the proc away.
func mustHaveLeft(pl *proc.Platform) {
	if pl.Holds() {
		panic("threads: Entry.Run returned holding its proc")
	}
}

// Wake is a wake-up cell that crosses thread systems: a thread blocks
// on it holding no proc (Await is a Blocking call), and any goroutine of
// any world signals it — control passes straight to the waiter, nobody
// polls, and the signaller never touches the waiter's scheduler.  The
// cell holds at most one signal: any number sent before a wait make that
// one wait return at once, and one sent while a signal is pending costs
// a single load.  So a wake is a hint — the waiter re-checks what it was
// waiting for — and the pending signal is what makes the protocol safe:
// a waiter that looks, finds nothing and then waits cannot miss a signal
// sent after its look.  Several threads may share a Wake; each signal
// wakes one of them.
type Wake struct {
	ch   chan struct{}
	at   atomic.Int64 // wall ns at which the pending (or last) signal was sent
	wait func()
}

// NewWake returns a wake-up cell with no signal pending.
func NewWake() *Wake {
	w := &Wake{ch: make(chan struct{}, 1)} // one slot: signals coalesce
	w.wait = func() { <-w.ch }
	return w
}

// Pending reports whether a signal is waiting to be consumed.
func (w *Wake) Pending() bool { return len(w.ch) != 0 }

// Signal makes the pending Await, or else the next one, return.  It
// never blocks.
func (w *Wake) Signal() {
	if w.Pending() {
		return
	}
	w.at.Store(time.Now().UnixNano())
	select {
	case w.ch <- struct{}{}:
	default:
	}
}

// since reports how long ago the signal just consumed was sent, or 0 if
// it was already pending when the wait began at t0 (wall ns).
func (w *Wake) since(t0 int64) time.Duration {
	if at := w.at.Load(); at >= t0 {
		return time.Duration(time.Now().UnixNano() - at)
	}
	return 0
}

// Await blocks the calling thread, with no proc held, until w is
// signalled.  It returns the wake-up latency — signal sent to thread
// running again — or 0 when it did not have to wait.
func (s *System) Await(w *Wake) time.Duration {
	t0 := time.Now().UnixNano()
	s.Blocking(w.wait)
	return w.since(t0)
}
