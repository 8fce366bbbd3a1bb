// Package syncx synthesizes higher-level synchronization constructs from
// the MP platform's primitives, demonstrating the paper's §3.3 claim:
// "More elaborate synchronization constructs such as reader/writer locks,
// semaphores, channels, etc., can be synthesized from mutex locks, refs,
// and first-class continuations."
//
// Every construct follows the same shape as the paper's clients: a mutex
// lock guards the construct's state; a thread that must block captures its
// continuation with callcc, parks it on a wait queue inside the critical
// section, and dispatches; a thread that releases the construct moves a
// parked continuation to the scheduler's ready queue.
package syncx

import (
	"repro/internal/cont"
	"repro/internal/core"
	"repro/internal/queue"
)

// waiter is a parked thread: its unit continuation and thread id.
type waiter struct {
	k  *core.UnitCont
	id int
}

// park captures the current thread's continuation, runs register(w) inside
// the caller's critical section (the caller must hold lk), releases lk and
// dispatches.  It returns when some other thread reschedules w.
func park(s core.Scheduler, lk core.Lock, register func(w waiter)) {
	cont.Callcc(func(k *core.UnitCont) core.Unit {
		register(waiter{k: k, id: s.ID()})
		lk.Unlock()
		s.Dispatch()
		return core.Unit{} // to the carrier: Dispatch handed the proc on
	})
}

// drain empties a wait queue, in order; call with its guard lock held.
func drain(q queue.Queue[waiter]) []waiter {
	var ws []waiter
	for {
		w, err := q.Deq()
		if err != nil {
			return ws
		}
		ws = append(ws, w)
	}
}

// Semaphore is a counting semaphore.
type Semaphore struct {
	s     core.Scheduler
	lk    core.Lock
	count int
	wait  queue.Queue[waiter]
}

// NewSemaphore returns a semaphore with the given initial count.
func NewSemaphore(s core.Scheduler, initial int) *Semaphore {
	return NewSemaphoreWith(s, initial, core.NewMutexLock)
}

// NewSemaphoreWith is NewSemaphore with the guard lock supplied by f —
// the hook that lets the serving fabric guard its admission semaphores
// with fair claim/release locks (FairFactory), which on a gcsync heap
// poll the GC section, so a dispatcher waiting for credits cannot convoy
// a pending collection.
func NewSemaphoreWith(s core.Scheduler, initial int, f core.LockFactory) *Semaphore {
	if initial < 0 {
		panic("syncx: negative semaphore count")
	}
	return &Semaphore{s: s, lk: f(), count: initial, wait: queue.NewFifo[waiter]()}
}

// Guard returns the lock guarding the count and wait queue.
func (m *Semaphore) Guard() core.Lock { return m.lk }

// Acquire decrements the semaphore, blocking while the count is zero
// (Dijkstra's P).
func (m *Semaphore) Acquire() {
	m.lk.Lock()
	if m.count > 0 {
		m.count--
		m.lk.Unlock()
		return
	}
	park(m.s, m.lk, func(w waiter) { m.wait.Enq(w) })
}

// TryAcquire decrements the semaphore if possible without blocking.
func (m *Semaphore) TryAcquire() bool {
	m.lk.Lock()
	ok := m.count > 0
	if ok {
		m.count--
	}
	m.lk.Unlock()
	return ok
}

// TryAcquireN takes up to max credits without blocking and returns how
// many it took (possibly zero).  One lock acquisition regardless of the
// count — the batched P the serving dispatcher drains its queue with: a
// single blocking Acquire, then one TryAcquireN for the rest of the
// batch, instead of a lock round-trip per unit.
func (m *Semaphore) TryAcquireN(max int) int {
	if max <= 0 {
		return 0
	}
	m.lk.Lock()
	n := m.count
	if n > max {
		n = max
	}
	m.count -= n
	m.lk.Unlock()
	return n
}

// Release increments the semaphore, waking one waiter if any (Dijkstra's
// V).  A waiter woken by Release absorbs the increment.
func (m *Semaphore) Release() {
	m.lk.Lock()
	if w, err := m.wait.Deq(); err == nil {
		m.lk.Unlock()
		m.s.Reschedule(core.Ready(w.k, core.Unit{}), w.id)
		return
	}
	m.count++
	m.lk.Unlock()
}

// ReleaseN performs n Vs under a single lock acquisition: up to n parked
// waiters are dequeued (each absorbs one increment) and the remainder is
// added to the count, all before the lock is released.  The batched
// wakeup lets one producer admit a whole batch of work without n lock
// round-trips, and because waiter handoff and count update are one
// critical section, no concurrent Acquire can observe an intermediate
// state where a credit exists but its wakeup is lost.
func (m *Semaphore) ReleaseN(n int) {
	if n <= 0 {
		return
	}
	var wake []waiter
	m.lk.Lock()
	for len(wake) < n {
		w, err := m.wait.Deq()
		if err != nil {
			break
		}
		wake = append(wake, w)
	}
	m.count += n - len(wake)
	m.lk.Unlock()
	for _, w := range wake {
		m.s.Reschedule(core.Ready(w.k, core.Unit{}), w.id)
	}
}

// RWLock is a readers/writer lock: any number of concurrent readers, or
// one writer.  Writers are preferred once waiting, preventing writer
// starvation.
type RWLock struct {
	s       core.Scheduler
	lk      core.Lock
	readers int // active readers
	writing bool
	waitW   queue.Queue[waiter]
	waitR   queue.Queue[waiter]
}

// NewRWLock returns an unheld readers/writer lock.
func NewRWLock(s core.Scheduler) *RWLock {
	return &RWLock{s: s, lk: core.NewMutexLock(), waitW: queue.NewFifo[waiter](), waitR: queue.NewFifo[waiter]()}
}

// RLock acquires the lock for reading.
func (l *RWLock) RLock() {
	l.lk.Lock()
	if !l.writing && l.waitW.Len() == 0 {
		l.readers++
		l.lk.Unlock()
		return
	}
	park(l.s, l.lk, func(w waiter) { l.waitR.Enq(w) })
}

// RUnlock releases a read acquisition.
func (l *RWLock) RUnlock() {
	l.lk.Lock()
	if l.readers <= 0 {
		l.lk.Unlock()
		panic("syncx: RUnlock without RLock")
	}
	l.readers--
	if l.readers == 0 {
		if w, err := l.waitW.Deq(); err == nil {
			l.writing = true
			l.lk.Unlock()
			l.s.Reschedule(core.Ready(w.k, core.Unit{}), w.id)
			return
		}
	}
	l.lk.Unlock()
}

// Lock acquires the lock for writing.
func (l *RWLock) Lock() {
	l.lk.Lock()
	if !l.writing && l.readers == 0 {
		l.writing = true
		l.lk.Unlock()
		return
	}
	park(l.s, l.lk, func(w waiter) { l.waitW.Enq(w) })
}

// Unlock releases a write acquisition, preferring a waiting writer, else
// admitting all waiting readers.
func (l *RWLock) Unlock() {
	l.lk.Lock()
	if !l.writing {
		l.lk.Unlock()
		panic("syncx: Unlock without Lock")
	}
	if w, err := l.waitW.Deq(); err == nil {
		// Hand the write lock directly to the next writer.
		l.lk.Unlock()
		l.s.Reschedule(core.Ready(w.k, core.Unit{}), w.id)
		return
	}
	l.writing = false
	wake := drain(l.waitR)
	l.readers += len(wake)
	l.lk.Unlock()
	for _, w := range wake {
		l.s.Reschedule(core.Ready(w.k, core.Unit{}), w.id)
	}
}

// Mutex is a blocking (non-spinning) mutual-exclusion lock for threads:
// contenders park their continuations instead of burning the proc, the
// "user-level mutex locks built on top of Lock mutex locks" the
// evaluation's thread package uses for shared memory.
type Mutex struct {
	s    core.Scheduler
	lk   core.Lock
	held bool
	wait queue.Queue[waiter]
}

// NewMutex returns an unheld thread mutex.
func NewMutex(s core.Scheduler) *Mutex {
	return &Mutex{s: s, lk: core.NewMutexLock(), wait: queue.NewFifo[waiter]()}
}

// Lock acquires the mutex, parking the calling thread if it is held.
func (m *Mutex) Lock() {
	m.lk.Lock()
	if !m.held {
		m.held = true
		m.lk.Unlock()
		return
	}
	park(m.s, m.lk, func(w waiter) { m.wait.Enq(w) })
}

// Unlock releases the mutex, handing it directly to the next waiter if
// any.
func (m *Mutex) Unlock() {
	m.lk.Lock()
	if !m.held {
		m.lk.Unlock()
		panic("syncx: Unlock of unheld Mutex")
	}
	if w, err := m.wait.Deq(); err == nil {
		// Ownership passes to w; held stays true.
		m.lk.Unlock()
		m.s.Reschedule(core.Ready(w.k, core.Unit{}), w.id)
		return
	}
	m.held = false
	m.lk.Unlock()
}

// Cond is a condition variable associated with a Mutex, in the style of
// the Modula-3 thread package the platform was used to build.
type Cond struct {
	s    core.Scheduler
	mu   *Mutex
	lk   core.Lock
	wait queue.Queue[waiter]
}

// NewCond returns a condition variable tied to mu.
func NewCond(s core.Scheduler, mu *Mutex) *Cond {
	return &Cond{s: s, mu: mu, lk: core.NewMutexLock(), wait: queue.NewFifo[waiter]()}
}

// Wait atomically releases the mutex and parks the calling thread; when
// signaled it re-acquires the mutex before returning.
func (c *Cond) Wait() {
	c.lk.Lock()
	cont.Callcc(func(k *core.UnitCont) core.Unit {
		c.wait.Enq(waiter{k: k, id: c.s.ID()})
		// Order matters: we are on the wait queue before the mutex is
		// released, so a signal between Unlock and Dispatch finds us.
		c.mu.Unlock()
		c.lk.Unlock()
		c.s.Dispatch()
		return core.Unit{} // to the carrier, as in park
	})
	c.mu.Lock()
}

// Signal wakes one waiter, if any.
func (c *Cond) Signal() {
	c.lk.Lock()
	w, err := c.wait.Deq()
	c.lk.Unlock()
	if err == nil {
		c.s.Reschedule(core.Ready(w.k, core.Unit{}), w.id)
	}
}

// Broadcast wakes every waiter.
func (c *Cond) Broadcast() {
	c.lk.Lock()
	wake := drain(c.wait)
	c.lk.Unlock()
	for _, w := range wake {
		c.s.Reschedule(core.Ready(w.k, core.Unit{}), w.id)
	}
}

// Barrier is a cyclic barrier for n parties, the phase synchronization the
// evaluation benchmarks (allpairs, simple) are built around.
type Barrier struct {
	s       core.Scheduler
	lk      core.Lock
	parties int
	arrived int
	gen     int
	wait    queue.Queue[waiter]
}

// NewBarrier returns a barrier for the given number of parties.
func NewBarrier(s core.Scheduler, parties int) *Barrier {
	if parties < 1 {
		panic("syncx: barrier needs at least one party")
	}
	return &Barrier{s: s, lk: core.NewMutexLock(), parties: parties, wait: queue.NewFifo[waiter]()}
}

// Await blocks until all parties have arrived, then releases them all and
// resets for the next phase.
func (b *Barrier) Await() {
	b.lk.Lock()
	b.arrived++
	if b.arrived == b.parties {
		b.arrived = 0
		b.gen++
		wake := drain(b.wait)
		b.lk.Unlock()
		for _, w := range wake {
			b.s.Reschedule(core.Ready(w.k, core.Unit{}), w.id)
		}
		return
	}
	park(b.s, b.lk, func(w waiter) { b.wait.Enq(w) })
}

// Once runs its function exactly once across all threads; later callers
// block until the first completes.
type Once struct {
	s    core.Scheduler
	lk   core.Lock
	done bool
	busy bool
	wait queue.Queue[waiter]
}

// NewOnce returns a fresh Once.
func NewOnce(s core.Scheduler) *Once {
	return &Once{s: s, lk: core.NewMutexLock(), wait: queue.NewFifo[waiter]()}
}

// Do runs f if no other call has; concurrent callers park until f
// completes.
func (o *Once) Do(f func()) {
	o.lk.Lock()
	if o.done {
		o.lk.Unlock()
		return
	}
	if o.busy {
		park(o.s, o.lk, func(w waiter) { o.wait.Enq(w) })
		return
	}
	o.busy = true
	o.lk.Unlock()

	f()

	o.lk.Lock()
	o.done = true
	wake := drain(o.wait)
	o.lk.Unlock()
	for _, w := range wake {
		o.s.Reschedule(core.Ready(w.k, core.Unit{}), w.id)
	}
}

// WaitGroup counts outstanding work, with Wait parking until the count
// reaches zero; the join primitive the native benchmarks use.
type WaitGroup struct {
	s     core.Scheduler
	lk    core.Lock
	count int
	wait  queue.Queue[waiter]
}

// NewWaitGroup returns a WaitGroup with the given initial count.
func NewWaitGroup(s core.Scheduler, initial int) *WaitGroup {
	if initial < 0 {
		panic("syncx: negative WaitGroup count")
	}
	return &WaitGroup{s: s, lk: core.NewMutexLock(), count: initial, wait: queue.NewFifo[waiter]()}
}

// Add adjusts the count by delta.
func (g *WaitGroup) Add(delta int) {
	g.lk.Lock()
	g.count += delta
	if g.count < 0 {
		g.lk.Unlock()
		panic("syncx: negative WaitGroup count")
	}
	if g.count > 0 {
		g.lk.Unlock()
		return
	}
	wake := drain(g.wait)
	g.lk.Unlock()
	for _, w := range wake {
		g.s.Reschedule(core.Ready(w.k, core.Unit{}), w.id)
	}
}

// Done decrements the count by one.
func (g *WaitGroup) Done() { g.Add(-1) }

// Wait parks the calling thread until the count is zero.
func (g *WaitGroup) Wait() {
	g.lk.Lock()
	if g.count == 0 {
		g.lk.Unlock()
		return
	}
	park(g.s, g.lk, func(w waiter) { g.wait.Enq(w) })
}
