package threads

import (
	"repro/internal/cont"
	"repro/internal/core"
	"repro/internal/proc"
	"repro/internal/queue"
)

// Uni is the uniprocessor thread package of Fig. 1: no locks, a single
// ready queue of continuations, and a plain shared current-id cell — all
// safe because exactly one proc ever runs.  Like the paper's UniThread
// functor it is parameterized by a queue discipline.
type Uni struct {
	pl        *proc.Platform
	ready     queue.Queue[Entry]
	currentID int
	nextID    int
}

// NewUni applies the Fig. 1 functor to a queue discipline (nil for FIFO).
func NewUni(newQueue queue.Factory[Entry]) *Uni {
	if newQueue == nil {
		newQueue = queue.NewFifo[Entry]
	}
	return &Uni{
		pl:     proc.New(1),
		ready:  newQueue(),
		nextID: 1,
	}
}

// Run executes root as thread 0 and returns when all threads have
// finished.
func (u *Uni) Run(root func()) {
	u.currentID, u.nextID = 0, 1
	u.pl.Run(func() {
		root()
		u.dispatch()
	}, nil)
}

func (u *Uni) reschedule(k *core.UnitCont, id int) {
	u.ready.Enq(Entry{Run: core.Ready(k, core.Unit{}), ID: id})
}

// dispatch transfers control to the next ready thread; with an empty queue
// the computation is finished and the proc is released.  (Fig. 1's dispatch
// simply lets Queue.Empty propagate; releasing is the MP-era refinement.)
// Either way it returns to a caller that then holds no proc, as
// System.Dispatch does.
func (u *Uni) dispatch() {
	e, err := u.ready.Deq()
	if err != nil {
		// One proc: nothing can be queued meanwhile, so the leave is never refused.
		u.pl.ReleaseUnless(proc.Current(), func() bool { return false })
		return
	}
	u.currentID = e.ID
	e.Run()
	mustHaveLeft(u.pl)
}

// Fork starts a new thread executing child (Fig. 1: fork).  The parent is
// placed on the ready queue and the child runs immediately.
func (u *Uni) Fork(child func()) {
	cont.Callcc(func(parent *core.UnitCont) core.Unit {
		u.reschedule(parent, u.currentID)
		u.currentID = u.nextID
		u.nextID++
		child()
		u.dispatch()
		return core.Unit{} // to the carrier: dispatch handed the proc on
	})
}

// Yield gives up the processor to the next ready thread (Fig. 1: yield).
func (u *Uni) Yield() {
	cont.Callcc(func(k *core.UnitCont) core.Unit {
		u.reschedule(k, u.currentID)
		u.dispatch()
		return core.Unit{} // to the carrier, as in Fork
	})
}

// ID returns the current thread's identifier (Fig. 1: id).
func (u *Uni) ID() int { return u.currentID }
