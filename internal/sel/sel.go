// Package sel implements the paper's CSP-style selective communication
// facility (Figs. 4 and 5): dynamically created polymorphic channels, a
// blocking Send, and a Receive that nondeterministically takes a value
// from one of a list of channels.  The protocol is the one underlying the
// authors' multiprocessor Concurrent ML prototype.
//
// A channel holds a queue of blocked sender states and a queue of blocked
// receiver states, jointly protected by a mutex lock.  A receiver state
// carries a `committed` mutex lock used as a flag: the first party to
// try-lock it wins the right to resume that receiver, which is what makes
// multi-channel receive safe — a receiver parked on several channels is
// resumed exactly once even if senders arrive on all of them at once.
//
// One deliberate repair to Fig. 5: when a receiver dequeues a blocked
// sender but then fails to acquire its own committed lock (some other
// sender already resumed it), the figure drops the dequeued sender on the
// floor; we re-queue it so no send is ever lost.
package sel

import (
	"math/rand"

	"repro/internal/cont"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/queue"
)

// Protocol counters, sharded by the calling thread's id on the default
// registry: channels are ownerless values, so there is no per-instance
// registry to hang them on.  aborted_polls counts committed-lock races
// lost — a dequeued partner that some other channel's protocol already
// resumed.
var (
	mSends   = metrics.Default.Counter("sel.sends")
	mRecvs   = metrics.Default.Counter("sel.receives")
	mCommits = metrics.Default.Counter("sel.commits")
	mAborts  = metrics.Default.Counter("sel.aborted_polls")
)

// sndr is a blocked sender's state: its continuation, thread id, and the
// value it is sending.
type sndr[T any] struct {
	kont *core.UnitCont
	id   int
	val  T
}

// rcvr is a blocked receiver's state: its value continuation, thread id,
// and the committed lock that flags whether a sender has been determined.
type rcvr[T any] struct {
	kont      *cont.Cont[T]
	id        int
	committed core.Lock
}

// Chan is the paper's 'a chan.
type Chan[T any] struct {
	sched  core.Scheduler
	chLock core.Lock
	sndrs  queue.Queue[sndr[T]]
	rcvrs  queue.Queue[rcvr[T]]
}

// NewChan creates a channel (Fig. 4: chan).
func NewChan[T any](s core.Scheduler) *Chan[T] {
	return &Chan[T]{
		sched:  s,
		chLock: core.NewMutexLock(),
		sndrs:  queue.NewFifo[sndr[T]](),
		rcvrs:  queue.NewFifo[rcvr[T]](),
	}
}

// Send sends v to the channel, blocking until a receiver takes it
// (Fig. 4/5: send).
func (c *Chan[T]) Send(v T) {
	self := c.sched.ID()
	mSends.Inc(self)
	c.chLock.Lock()
	for {
		r, err := c.rcvrs.Deq()
		if err != nil {
			// No receiver available: park this sender on the channel and
			// give the proc to another thread.
			cont.Callcc(func(k *core.UnitCont) core.Unit {
				c.sndrs.Enq(sndr[T]{kont: k, id: self, val: v})
				c.chLock.Unlock()
				c.sched.Dispatch()
				return core.Unit{} // to the carrier: Dispatch handed the proc on
			})
			return // resumed: some receiver took the value
		}
		if r.committed.TryLock() {
			c.chLock.Unlock()
			mCommits.Inc(self)
			// Effect the communication: reschedule the receiver's
			// continuation with the value bound in (the paper's
			// reschedule_thread converts the 'a cont plus value to a
			// reschedulable unit cont).
			c.sched.Reschedule(core.Ready(r.kont, v), r.id)
			return
		}
		// This receiver was already resumed by another sender; discard its
		// stale entry and look for another.
		mAborts.Inc(self)
	}
}

// Receive takes a value from exactly one of the given channels,
// nondeterministically (Fig. 4/5: receive).  All channels must share a
// scheduler.  The calling thread blocks until some sender commits to it.
func Receive[T any](chans ...*Chan[T]) T {
	if len(chans) == 0 {
		panic("sel: Receive with no channels")
	}
	sched := chans[0].sched
	self := sched.ID()
	mRecvs.Inc(self)
	return cont.Callcc(func(k *cont.Cont[T]) (none T) {
		r := rcvr[T]{kont: k, id: self, committed: core.NewMutexLock()}
		for _, c := range randomize(chans) {
			c.chLock.Lock()
			s, err := c.sndrs.Deq()
			if err != nil {
				// No sender here: leave our state on this channel's
				// receiver queue and try the next channel.
				c.rcvrs.Enq(r)
				c.chLock.Unlock()
				continue
			}
			if r.committed.TryLock() {
				c.chLock.Unlock()
				mCommits.Inc(self)
				sched.Reschedule(core.Ready(s.kont, core.Unit{}), s.id)
				return s.val // implicit throw to k: the receive completes
			}
			// Some sender already committed to us via another channel;
			// restore the dequeued sender (repairing Fig. 5) and abandon
			// this invocation at once — our continuation is already
			// scheduled.
			mAborts.Inc(self)
			c.sndrs.Enq(s)
			c.chLock.Unlock()
			sched.Dispatch()
			return none // to the carrier: Dispatch handed the proc on
		}
		// Parked on every channel; a sender will resume k.
		sched.Dispatch()
		return none // to the carrier, as above
	})
}

// Receive is the single-channel convenience form.
func (c *Chan[T]) Receive() T { return Receive(c) }

// randomize returns the channels in pseudo-random order, as Fig. 5's
// receive loop does, so no channel in a multi-way receive is starved.
func randomize[T any](chans []*Chan[T]) []*Chan[T] {
	if len(chans) == 1 {
		return chans
	}
	out := make([]*Chan[T], len(chans))
	copy(out, chans)
	rand.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
