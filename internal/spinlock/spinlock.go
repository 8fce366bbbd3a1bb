// Package spinlock implements the Lock half of the MP platform (paper
// §3.3): one-bit mutex locks that can be atomically tested and set, are
// typically used as spin locks, and may be unlocked by any proc — not
// necessarily the one that set them.  That last property rules out
// sync.Mutex-style owner tracking, so the locks here are built directly on
// atomics.
//
// The paper's LOCK signature provides mutex_lock (creation), try_lock,
// lock, and unlock, and notes that `lock` is semantically the trivial spin
//
//	fun lock sl = while not(try_lock sl) do ()
//
// but is included in the interface because platforms may spin more
// efficiently, e.g. with backoff techniques [Anderson 90].  Accordingly the
// package offers several spin strategies — test-and-set, test-and-test-and-
// set, TTAS with randomized exponential backoff, a ticket lock, and an
// Anderson array lock — behind one interface, and the repository's A1
// ablation benchmark compares them under contention.
package spinlock

import (
	"math/rand"
	"runtime"
	"sync/atomic"
)

// Lock is the paper's mutex_lock abstraction.  The zero value of each
// concrete type in this package is an unlocked lock.
type Lock interface {
	// TryLock attempts to set the lock and reports success without
	// blocking.
	TryLock() bool
	// Lock spins until the lock is acquired.
	Lock()
	// Unlock releases the lock.  Any proc may call it, not only the one
	// that set the lock.
	Unlock()
}

// Factory creates fresh unlocked locks; clients are parameterized by one
// just as the paper's functors are parameterized by structures.
type Factory func() Lock

// GCWorld is the slice of gcsync.World that syncx.FairLock polls on
// every claim-loop iteration: a lock-free flag saying a stop-the-world
// collection is pending, and a clean point the waiter can take mid-wait.
// Declared here so this package stays dependency-free.
type GCWorld interface {
	// InSection reports a pending or running collection (one atomic load).
	InSection() bool
	// SectionPoint joins or helps the pending collection; safe from any
	// goroutine at any time.
	SectionPoint()
}

// yieldEvery bounds pure spinning: with more spinners than CPUs a
// non-yielding loop could starve the lock holder, so every spin strategy
// calls runtime.Gosched periodically.
const yieldEvery = 64

// OnContention, when non-nil, is called at the end of every contended
// Lock with the number of failed acquisition attempts the caller spun
// through.  The observability layer installs a sharded counter here;
// the nil default keeps the uncontended path to a single predictable
// branch, so this package stays free of metrics dependencies.  Install
// before any lock is shared between procs; the hook must not itself
// take a lock from this package.
var OnContention func(spins int64)

// contended reports a contended acquisition to the hook, if any.
func contended(spins int64) {
	if h := OnContention; h != nil && spins > 0 {
		h(spins)
	}
}

// TAS is the naive test-and-set lock: every acquisition attempt is a
// read-modify-write, generating coherence traffic on each spin.
type TAS struct {
	v atomic.Bool
}

// NewTAS returns an unlocked test-and-set lock.
func NewTAS() Lock { return new(TAS) }

func (l *TAS) TryLock() bool { return !l.v.Swap(true) }

func (l *TAS) Lock() {
	var spins int64
	for i := 1; !l.TryLock(); i++ {
		spins++
		if i%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
	contended(spins)
}

func (l *TAS) Unlock() {
	if !l.v.Swap(false) {
		panic("spinlock: unlock of unlocked TAS lock")
	}
}

// TTAS spins on a plain read and attempts the atomic swap only when the
// lock appears free, the classic test-and-test-and-set refinement.
type TTAS struct {
	v atomic.Bool
}

// NewTTAS returns an unlocked test-and-test-and-set lock.
func NewTTAS() Lock { return new(TTAS) }

func (l *TTAS) TryLock() bool { return !l.v.Load() && !l.v.Swap(true) }

func (l *TTAS) Lock() {
	var spins int64
	for i := 1; ; i++ {
		if !l.v.Load() && !l.v.Swap(true) {
			contended(spins)
			return
		}
		spins++
		if i%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
}

func (l *TTAS) Unlock() {
	if !l.v.Swap(false) {
		panic("spinlock: unlock of unlocked TTAS lock")
	}
}

// Backoff is TTAS with randomized exponential backoff between attempts,
// the strategy Anderson found best for shared-bus machines like the
// Sequent the paper evaluates on.
type Backoff struct {
	v atomic.Bool
}

// NewBackoff returns an unlocked TTAS lock with exponential backoff.
func NewBackoff() Lock { return new(Backoff) }

func (l *Backoff) TryLock() bool { return !l.v.Load() && !l.v.Swap(true) }

func (l *Backoff) Lock() {
	limit := 4
	var spins int64
	for {
		if !l.v.Load() && !l.v.Swap(true) {
			contended(spins)
			return
		}
		spins++
		for i, n := 0, rand.Intn(limit); i < n; i++ {
			if l.v.Load() {
				// Keep waiting; the read keeps the delay loop from
				// being optimized into nothing.
				continue
			}
		}
		runtime.Gosched()
		if limit < 1<<12 {
			limit *= 2
		}
	}
}

func (l *Backoff) Unlock() {
	if !l.v.Swap(false) {
		panic("spinlock: unlock of unlocked Backoff lock")
	}
}

// Ticket is a FIFO lock: acquirers draw a ticket and spin until the
// now-serving counter reaches it, eliminating the thundering herd at the
// cost of strict ordering.
//
// syncx.FairLock, the serving fabric's one lock, is this shape made
// fair and spin-free: waiters yield on every check, the claim loop is a
// GC safe point (GCWorld), and TryLock never overtakes a queued claim.
type Ticket struct {
	next    atomic.Uint64
	serving atomic.Uint64
}

// NewTicket returns an unlocked ticket lock.
func NewTicket() Lock { return new(Ticket) }

func (l *Ticket) TryLock() bool {
	t := l.serving.Load()
	return l.next.CompareAndSwap(t, t+1)
}

func (l *Ticket) Lock() {
	t := l.next.Add(1) - 1
	var spins int64
	for i := 1; l.serving.Load() != t; i++ {
		spins++
		if i%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
	contended(spins)
}

func (l *Ticket) Unlock() {
	l.serving.Add(1)
}

// andersonSlots bounds the number of simultaneous waiters on an Anderson
// array lock; 128 exceeds any proc count the platform configures.
const andersonSlots = 128

// Anderson is Anderson's array-based queueing lock: each waiter spins on
// its own slot, so a release invalidates one waiter's line instead of all
// of them.
type Anderson struct {
	slots [andersonSlots]struct {
		flag atomic.Bool
		_    [56]byte // pad to a cache line to avoid false sharing
	}
	next    atomic.Uint64
	serving atomic.Uint64 // ticket of the current holder; lets any proc unlock
}

// NewAnderson returns an unlocked Anderson array lock.
func NewAnderson() Lock {
	l := new(Anderson)
	l.slots[0].flag.Store(true)
	return l
}

func (l *Anderson) TryLock() bool {
	t := l.next.Load()
	if !l.slots[t%andersonSlots].flag.Load() {
		return false
	}
	if !l.next.CompareAndSwap(t, t+1) {
		return false
	}
	l.slots[t%andersonSlots].flag.Store(false)
	l.serving.Store(t)
	return true
}

func (l *Anderson) Lock() {
	t := l.next.Add(1) - 1
	slot := &l.slots[t%andersonSlots]
	var spins int64
	for i := 1; !slot.flag.Load(); i++ {
		spins++
		if i%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
	slot.flag.Store(false)
	l.serving.Store(t)
	contended(spins)
}

func (l *Anderson) Unlock() {
	s := l.serving.Load()
	l.slots[(s+1)%andersonSlots].flag.Store(true)
}

// Variants names every lock flavor for ablation sweeps.
var Variants = []struct {
	Name string
	New  Factory
}{
	{"tas", NewTAS},
	{"ttas", NewTTAS},
	{"backoff", NewBackoff},
	{"ticket", NewTicket},
	{"anderson", NewAnderson},
}
