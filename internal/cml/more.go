package cml

import (
	"repro/internal/core"
	"repro/internal/queue"
	"repro/internal/spinlock"
)

// SwapChan is CML's swap channel: a symmetric rendezvous where both
// parties offer a value and receive their partner's.  The classic CML
// construction guards a choice of send and receive events; that needs
// the symmetric-choice protocol this prototype deliberately omits
// (package doc), so SwapChan implements the rendezvous directly with the
// same offer-queue discipline the Fig. 5 channels use.  Swap is a
// synchronous operation, not a selectable event.
type SwapChan[T any] struct {
	lk     spinlock.Lock
	offers queue.Queue[swapOffer[T]]
}

type swapOffer[T any] struct {
	val    T
	resume func(T)
	id     int
}

// NewSwapChan creates a swap channel.
func NewSwapChan[T any]() *SwapChan[T] {
	return &SwapChan[T]{lk: core.NewMutexLock(), offers: queue.NewFifo[swapOffer[T]]()}
}

// Swap offers v and blocks until a partner arrives; it returns the
// partner's value, and the partner receives v.
func (sc *SwapChan[T]) Swap(s core.Scheduler, v T) T {
	return Sync(s, swapEvt[T]{sc: sc, v: v})
}

// swapEvt is the internal non-selectable event backing Swap.  An offer
// behaves like a blocked sender whose resume hook delivers the partner's
// value; the block phase re-checks the offer queue under the lock before
// parking (the standard recheck-then-park that prevents lost wakeups).
type swapEvt[T any] struct {
	sc *SwapChan[T]
	v  T
}

func (e swapEvt[T]) force(core.Scheduler) Event[T] { return e }
func (e swapEvt[T]) selectable() bool              { return false }

func (e swapEvt[T]) poll(s core.Scheduler) (T, bool) {
	sc := e.sc
	sc.lk.Lock()
	if o, err := sc.offers.Deq(); err == nil {
		sc.lk.Unlock()
		o.resume(e.v)
		return o.val, true
	}
	sc.lk.Unlock()
	var zero T
	return zero, false
}

func (e swapEvt[T]) block(s core.Scheduler, w commitRef[T]) blockRes[T] {
	sc := e.sc
	sc.lk.Lock()
	if o, err := sc.offers.Deq(); err == nil {
		sc.lk.Unlock()
		o.resume(e.v)
		return blockRes[T]{kind: committedNow, val: o.val}
	}
	sc.offers.Enq(swapOffer[T]{val: e.v, resume: w.resume, id: w.id})
	sc.lk.Unlock()
	return blockRes[T]{kind: parked}
}

// Multicast is CML's multicast channel: every port attached to the
// channel receives every message sent after the port was created.
type Multicast[T any] struct {
	lk    spinlock.Lock
	ports []*Mailbox[T]
}

// NewMulticast creates a multicast channel with no ports.
func NewMulticast[T any]() *Multicast[T] {
	return &Multicast[T]{lk: core.NewMutexLock()}
}

// Port attaches a new receive port; it sees messages sent from now on.
func (mc *Multicast[T]) Port() *Mailbox[T] {
	p := NewMailbox[T]()
	mc.lk.Lock()
	mc.ports = append(mc.ports, p)
	mc.lk.Unlock()
	return p
}

// Send delivers v to every port without blocking (ports buffer).
func (mc *Multicast[T]) Send(s core.Scheduler, v T) {
	mc.lk.Lock()
	ports := append([]*Mailbox[T](nil), mc.ports...)
	mc.lk.Unlock()
	for _, p := range ports {
		p.Send(s, v)
	}
}
