package threads

import (
	"sync/atomic"
	"time"

	"repro/internal/cont"
	"repro/internal/core"
	"repro/internal/proc"
	"repro/internal/queue"
)

// PrioEntry is a ready thread with a scheduling priority — the paper's
// footnote 1: "Many useful scheduling policies would require minor
// changes to the signature; for example, priority queues would need a
// priority to be passed to the enqueue operation."  This type and the
// PrioSystem below are exactly that minor signature change.
type PrioEntry struct {
	Entry
	Prio int // smaller runs first
}

// PrioSystem is the Fig. 3 thread package with the priority-scheduling
// signature: fork, yield and reschedule carry a priority, and the ready
// queue is a priority queue.  Scheduling remains strictly a property of
// the queue discipline, as the paper's design intends.
type PrioSystem struct {
	sched
	readyLock core.Lock
	ready     queue.Queue[PrioEntry]

	nextID atomic.Int64 // last thread id handed out
}

// NewPrio applies the priority-thread functor to a platform.
func NewPrio(pl *proc.Platform) *PrioSystem {
	s := &PrioSystem{
		readyLock: core.NewMutexLock(),
		ready: queue.NewPriority(func(a, b PrioEntry) bool {
			return a.Prio < b.Prio
		}),
	}
	s.sched = newSched(pl, s.pending, s.Dispatch, s.enqueue)
	return s
}

// Run bootstraps the platform with root as thread 0 and blocks until
// quiescence.
func (s *PrioSystem) Run(root func()) {
	s.nextID.Store(0) // root is thread 0; the first Fork gets 1
	s.pl.Run(func() {
		root()
		s.Dispatch()
	}, 0)
}

// ID returns the current thread's identifier.
func (s *PrioSystem) ID() int { return proc.GetDatum().(int) }

func (s *PrioSystem) newID() int { return int(s.nextID.Add(1)) }

// Reschedule makes a ready thread runnable at the given priority — the
// footnote's changed enqueue signature — from any goroutine, starting a
// proc for it if a slot is idle (System.Reschedule's rule).
func (s *PrioSystem) Reschedule(run func(), id, prio int) {
	s.enqueue(run, id, prio)
	s.wake()
}

func (s *PrioSystem) enqueue(run func(), id, prio int) {
	s.readyLock.Lock()
	s.ready.Enq(PrioEntry{Entry: Entry{Run: run, ID: id}, Prio: prio})
	s.readyLock.Unlock()
}

func (s *PrioSystem) pending() bool {
	s.readyLock.Lock()
	defer s.readyLock.Unlock()
	return s.ready.Len() > 0
}

// Dispatch transfers control to the highest-priority ready thread, or
// releases the proc, and returns to a caller that then holds no proc
// (System.Dispatch's contract).
func (s *PrioSystem) Dispatch() {
	p := proc.Current()
	if s.pl.ReleaseIfRevoked(p) {
		return
	}
	for {
		s.readyLock.Lock()
		e, err := s.ready.Deq()
		s.readyLock.Unlock()
		if err == nil {
			p.SetDatum(e.ID)
			e.Run()
			mustHaveLeft(s.pl)
			return
		}
		if s.pl.ReleaseUnless(p, s.pending) {
			return
		}
	}
}

// Blocking is System.Blocking with the priority the thread re-queues at
// should it return to a full allowance.
func (s *PrioSystem) Blocking(f func(), prio int) { s.blocking(f, s.ID(), prio) }

// Await is System.Await; prio as for Blocking.
func (s *PrioSystem) Await(w *Wake, prio int) time.Duration {
	t0 := time.Now().UnixNano()
	s.Blocking(w.wait, prio)
	return w.since(t0)
}

// Fork starts a new thread executing child at the given priority.  As in
// Fig. 3 the parent moves to a fresh proc if one is available and is
// otherwise queued — at its own priority, passed here because the queue
// now demands one.
func (s *PrioSystem) Fork(child func(), childPrio, parentPrio int) {
	cont.Callcc(func(parent *core.UnitCont) core.Unit {
		parentID := s.ID()
		if err := s.pl.Acquire(proc.PS{K: parent, Datum: parentID}); err != nil {
			if err != proc.ErrNoMoreProcs {
				panic(err)
			}
			s.enqueue(core.Ready(parent, core.Unit{}), parentID, parentPrio)
		}
		proc.SetDatum(s.newID())
		_ = childPrio // the child holds the proc; its priority matters at its next yield
		child()
		s.Dispatch()
		return core.Unit{} // to the carrier: Dispatch handed the proc on
	})
}

// Yield gives up the processor, re-queueing the caller at prio.
func (s *PrioSystem) Yield(prio int) {
	cont.Callcc(func(k *core.UnitCont) core.Unit {
		s.enqueue(core.Ready(k, core.Unit{}), s.ID(), prio)
		s.Dispatch()
		return core.Unit{} // to the carrier, as in Fork
	})
}
