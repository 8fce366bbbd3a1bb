package cml

import (
	"math"

	"repro/internal/core"
	"repro/internal/spinlock"
)

// Clock is a virtual clock providing CML's timeout events (timeOutEvt /
// atTimeEvt) without wall time: the MP platform has no timers — the
// paper's runtime used Unix alarms, which the Go layer cannot deliver
// asynchronously — so time is advanced explicitly by the program (for
// instance from a scheduler tick or a driver loop), keeping every test
// and simulation deterministic.
//
// Advance is the serving pumps' per-tick hot path, so wakeups are
// coalesced: the clock tracks the earliest parked deadline, an Advance
// that reaches no deadline is a single O(1) spinlock critical section
// (no waiter scan), and an Advance that does cross deadlines fires every
// due waiter in one scan — N expiring deadlines cost one Advance, not N.
type Clock struct {
	lk      spinlock.Lock
	now     int64
	next    int64 // earliest parked deadline (may be stale low, never high)
	waiters []clockWaiter
}

type clockWaiter struct {
	deadline int64
	w        crcvr[int64]
}

// NewClock returns a clock at time zero.
func NewClock() *Clock {
	return &Clock{lk: core.NewMutexLock(), next: math.MaxInt64}
}

// Now returns the current virtual time.
func (c *Clock) Now() int64 {
	c.lk.Lock()
	defer c.lk.Unlock()
	return c.now
}

// Advance moves the clock forward by d ticks and fires every due timeout
// event (waiters whose choices already committed elsewhere are
// discarded, per the Fig. 5 protocol).
func (c *Clock) Advance(s core.Scheduler, d int64) {
	if d < 0 {
		panic("cml: clock cannot run backwards")
	}
	c.lk.Lock()
	c.now += d
	now := c.now
	if now < c.next {
		// Nothing is due (next may be stale low after committed-elsewhere
		// drops, but never high): the common per-tick Advance is O(1).
		c.lk.Unlock()
		return
	}
	var due []crcvr[int64]
	next := int64(math.MaxInt64)
	remaining := c.waiters[:0]
	for _, cw := range c.waiters {
		if cw.deadline <= now {
			if cw.w.committed == nil || cw.w.committed.TryLock() {
				due = append(due, cw.w)
			}
			// Committed-elsewhere waiters are dropped either way.
		} else {
			if cw.deadline < next {
				next = cw.deadline
			}
			remaining = append(remaining, cw)
		}
	}
	c.waiters = remaining
	c.next = next
	c.lk.Unlock()
	for _, w := range due {
		w.resume(now)
	}
}

type atEvt struct {
	c        *Clock
	deadline int64
}

// AtEvt returns the event of the clock reaching the absolute time t; it
// yields the clock value at commit (CML: atTimeEvt).
func (c *Clock) AtEvt(t int64) Event[int64] { return atEvt{c: c, deadline: t} }

// AfterEvt returns the event of d more ticks passing (CML: timeOutEvt).
// The deadline is fixed when the event is synchronized, via Guard.
func (c *Clock) AfterEvt(d int64) Event[int64] {
	return Guard(func() Event[int64] { return c.AtEvt(c.Now() + d) })
}

func (e atEvt) force(core.Scheduler) Event[int64] { return e }
func (e atEvt) selectable() bool                  { return true }

func (e atEvt) poll(core.Scheduler) (int64, bool) {
	e.c.lk.Lock()
	now := e.c.now
	e.c.lk.Unlock()
	return now, now >= e.deadline
}

func (e atEvt) block(s core.Scheduler, w commitRef[int64]) blockRes[int64] {
	c := e.c
	c.lk.Lock()
	if c.now >= e.deadline {
		now := c.now
		if w.committed == nil || w.committed.TryLock() {
			c.lk.Unlock()
			return blockRes[int64]{kind: committedNow, val: now}
		}
		c.lk.Unlock()
		return blockRes[int64]{kind: already}
	}
	c.waiters = append(c.waiters, clockWaiter{
		deadline: e.deadline,
		w:        crcvr[int64]{committed: w.committed, resume: w.resume, id: w.id},
	})
	if e.deadline < c.next {
		c.next = e.deadline
	}
	c.lk.Unlock()
	return blockRes[int64]{kind: parked}
}
