package cml

import (
	"repro/internal/core"
	"repro/internal/queue"
)

// IVar is a write-once synchronizing cell (CML: ivar).  Reads before the
// write block; after the write every read yields the value immediately.
type IVar[T any] struct {
	lk      core.Lock
	full    bool
	val     T
	waiters queue.Queue[crcvr[T]]
}

// NewIVar returns an empty IVar.
func NewIVar[T any]() *IVar[T] {
	return &IVar[T]{lk: core.NewMutexLock(), waiters: queue.NewFifo[crcvr[T]]()}
}

// Put writes the IVar exactly once and wakes every parked reader; a second
// Put panics, as iPut raises Put in CML.
func (iv *IVar[T]) Put(s core.Scheduler, v T) {
	iv.lk.Lock()
	if iv.full {
		iv.lk.Unlock()
		panic("cml: IVar written twice")
	}
	iv.full = true
	iv.val = v
	var wake []crcvr[T]
	for {
		r, err := iv.waiters.Deq()
		if err != nil {
			break
		}
		// IVar reads are non-destructive: every reader whose choice has
		// not already committed elsewhere gets the value.
		if r.committed == nil || r.committed.TryLock() {
			wake = append(wake, r)
		}
	}
	iv.lk.Unlock()
	for _, r := range wake {
		r.resume(v)
	}
}

type ivarReadEvt[T any] struct{ iv *IVar[T] }

// ReadEvt returns the event of reading the IVar (CML: iGetEvt).
func (iv *IVar[T]) ReadEvt() Event[T] { return ivarReadEvt[T]{iv} }

func (e ivarReadEvt[T]) force(core.Scheduler) Event[T] { return e }
func (e ivarReadEvt[T]) selectable() bool              { return true }

func (e ivarReadEvt[T]) poll(core.Scheduler) (T, bool) {
	e.iv.lk.Lock()
	full, v := e.iv.full, e.iv.val
	e.iv.lk.Unlock()
	return v, full
}

func (e ivarReadEvt[T]) block(s core.Scheduler, w commitRef[T]) blockRes[T] {
	iv := e.iv
	iv.lk.Lock()
	if iv.full {
		v := iv.val
		if w.committed == nil || w.committed.TryLock() {
			iv.lk.Unlock()
			return blockRes[T]{kind: committedNow, val: v}
		}
		iv.lk.Unlock()
		return blockRes[T]{kind: already}
	}
	iv.waiters.Enq(crcvr[T]{committed: w.committed, resume: w.resume, id: w.id})
	iv.lk.Unlock()
	return blockRes[T]{kind: parked}
}

// Read synchronizes on ReadEvt.
func (iv *IVar[T]) Read(s core.Scheduler) T { return Sync(s, iv.ReadEvt()) }

// MVar is a single-slot synchronizing cell with destructive take (CML:
// mvar).
type MVar[T any] struct {
	lk      core.Lock
	full    bool
	val     T
	waiters queue.Queue[crcvr[T]] // parked takers
}

// NewMVar returns an MVar, optionally filled with an initial value.
func NewMVar[T any]() *MVar[T] {
	return &MVar[T]{lk: core.NewMutexLock(), waiters: queue.NewFifo[crcvr[T]]()}
}

// Put fills the MVar, handing the value directly to a parked taker if one
// exists.  Filling a full MVar panics, as mPut raises Put in CML.
func (mv *MVar[T]) Put(s core.Scheduler, v T) {
	mv.lk.Lock()
	if mv.full {
		mv.lk.Unlock()
		panic("cml: Put on full MVar")
	}
	for {
		r, err := mv.waiters.Deq()
		if err != nil {
			break
		}
		if r.committed == nil || r.committed.TryLock() {
			// Exactly one taker gets the value; the cell stays empty.
			mv.lk.Unlock()
			r.resume(v)
			return
		}
		// Stale taker (committed elsewhere): discard and try the next.
	}
	mv.full = true
	mv.val = v
	mv.lk.Unlock()
}

type mvarTakeEvt[T any] struct{ mv *MVar[T] }

// TakeEvt returns the event of destructively taking the MVar's value
// (CML: mTakeEvt).
func (mv *MVar[T]) TakeEvt() Event[T] { return mvarTakeEvt[T]{mv} }

func (e mvarTakeEvt[T]) force(core.Scheduler) Event[T] { return e }
func (e mvarTakeEvt[T]) selectable() bool              { return true }

func (e mvarTakeEvt[T]) poll(core.Scheduler) (T, bool) {
	mv := e.mv
	mv.lk.Lock()
	if !mv.full {
		mv.lk.Unlock()
		var zero T
		return zero, false
	}
	v := mv.val
	var zero T
	mv.val, mv.full = zero, false
	mv.lk.Unlock()
	return v, true
}

func (e mvarTakeEvt[T]) block(s core.Scheduler, w commitRef[T]) blockRes[T] {
	mv := e.mv
	mv.lk.Lock()
	if mv.full {
		if w.committed == nil || w.committed.TryLock() {
			v := mv.val
			var zero T
			mv.val, mv.full = zero, false
			mv.lk.Unlock()
			return blockRes[T]{kind: committedNow, val: v}
		}
		mv.lk.Unlock()
		return blockRes[T]{kind: already}
	}
	mv.waiters.Enq(crcvr[T]{committed: w.committed, resume: w.resume, id: w.id})
	mv.lk.Unlock()
	return blockRes[T]{kind: parked}
}

// Take synchronizes on TakeEvt.
func (mv *MVar[T]) Take(s core.Scheduler) T { return Sync(s, mv.TakeEvt()) }

// Mailbox is an unbounded buffered channel (CML: mailbox): sends never
// block; receives are selectable events.
type Mailbox[T any] struct {
	lk      core.Lock
	buf     queue.Queue[T]
	waiters queue.Queue[crcvr[T]]
}

// NewMailbox returns an empty mailbox.
func NewMailbox[T any]() *Mailbox[T] {
	return &Mailbox[T]{
		lk:      core.NewMutexLock(),
		buf:     queue.NewFifo[T](),
		waiters: queue.NewFifo[crcvr[T]](),
	}
}

// Send deposits v without blocking (CML: send for mailboxes).
func (mb *Mailbox[T]) Send(s core.Scheduler, v T) {
	mb.lk.Lock()
	for {
		r, err := mb.waiters.Deq()
		if err != nil {
			break
		}
		if r.committed == nil || r.committed.TryLock() {
			mb.lk.Unlock()
			r.resume(v)
			return
		}
	}
	mb.buf.Enq(v)
	mb.lk.Unlock()
}

type mbRecvEvt[T any] struct{ mb *Mailbox[T] }

// RecvEvt returns the event of receiving from the mailbox (CML: recvEvt
// for mailboxes).
func (mb *Mailbox[T]) RecvEvt() Event[T] { return mbRecvEvt[T]{mb} }

func (e mbRecvEvt[T]) force(core.Scheduler) Event[T] { return e }
func (e mbRecvEvt[T]) selectable() bool              { return true }

func (e mbRecvEvt[T]) poll(core.Scheduler) (T, bool) {
	mb := e.mb
	mb.lk.Lock()
	v, err := mb.buf.Deq()
	mb.lk.Unlock()
	return v, err == nil
}

func (e mbRecvEvt[T]) block(s core.Scheduler, w commitRef[T]) blockRes[T] {
	mb := e.mb
	mb.lk.Lock()
	if v, err := mb.buf.Deq(); err == nil {
		if w.committed == nil || w.committed.TryLock() {
			mb.lk.Unlock()
			return blockRes[T]{kind: committedNow, val: v}
		}
		mb.buf.Enq(v) // not ours to take; we are already committed
		mb.lk.Unlock()
		return blockRes[T]{kind: already}
	}
	mb.waiters.Enq(crcvr[T]{committed: w.committed, resume: w.resume, id: w.id})
	mb.lk.Unlock()
	return blockRes[T]{kind: parked}
}

// Recv synchronizes on RecvEvt.
func (mb *Mailbox[T]) Recv(s core.Scheduler) T { return Sync(s, mb.RecvEvt()) }
