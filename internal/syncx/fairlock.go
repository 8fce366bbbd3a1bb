// FairLock is the fair, spin-free claim/release protocol of Chalmers &
// Pedersen (PAPERS.md: fair synchronisation without spinning or kernel
// locks, for cooperatively scheduled runtimes), recast onto the paper's
// LOCK signature so it can stand in for any spinlock in the platform.
//
// The protocol replaces the TAS race — where whichever proc loses the
// cache-line coherence race repeatedly sets the tail — with an explicit
// FIFO claim queue and handoff on release:
//
//   - claim: an acquirer atomically draws the next ticket, which is its
//     position in the queue.  No retry, no race: one fetch-and-add and
//     the claim is registered, so overtaking is bounded (in fact zero —
//     grants are in ticket order).
//   - wait: the claimant is cooperatively scheduled while it waits — it
//     yields the processor on *every* check rather than burning a spin
//     budget, so there is no unbounded TAS spinning and a waiter never
//     starves the holder (or, on this platform, a pending collection).
//   - release: the holder advances the now-serving counter, handing the
//     lock directly to the head claimant instead of re-opening a race.
//
// The claim loop is GC-aware in the sense of PR 9 (spinlock.GCAware,
// MPL's Parallel_lockTake): when constructed over a GCWorld, every wait
// iteration polls the world's section flag and enters/leaves the GC
// section while queued, so a stop-the-world parallel collection
// proceeds even with a full claim queue — a parked claimant helps copy
// or joins the clean-point barrier, then resumes waiting for its grant.
package syncx

import (
	"reflect"
	"runtime"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/spinlock"
)

// FairLock is a FIFO claim/release lock satisfying spinlock.Lock (and
// hence core.Lock): any proc may Unlock it, the zero value is unlocked,
// and TryLock never jumps the claim queue.  Use NewFairLock /
// FairFactory to construct; the zero value works but has no GC world or
// observer.
type FairLock struct {
	next    atomic.Uint64 // next ticket to hand out (tail of the claim queue)
	serving atomic.Uint64 // ticket currently granted (head of the claim queue)

	w       spinlock.GCWorld  // optional: poll the GC section while queued
	observe func(iters int64) // optional: wait-time observer, in claim-loop yields
}

// NewFairLock returns an unlocked FairLock with no GC world or observer.
func NewFairLock() *FairLock { return &FairLock{} }

// FairFactory returns a lock factory producing independent FairLocks,
// each polling w's GC section while queued (nil w disables the poll) and
// reporting every contended claim's wait length — in claim-loop yields —
// to observe (nil disables).  The factory slots anywhere the platform
// takes a core.LockFactory, exactly as spinlock.GCAware does for the
// spinning flavors.
func FairFactory(w spinlock.GCWorld, observe func(iters int64)) core.LockFactory {
	return func() core.Lock { return &FairLock{w: w, observe: observe} }
}

// LockFactory is the serving fabric's one lock constructor: the policy
// bit picks the family (fair FIFO claim/release, or the default TAS
// spin lock) and a non-nil world makes every acquisition a GC safe
// point in either family — FairLock's inline poll, spinlock.GCAware
// around the spin lock — so a stop-the-world is never stalled by a lock
// queue.  A nil *T stored in world counts as no world: callers pass
// their optional *gcsync.World field straight through.  observe
// receives fair claim waits only; spin contention already reports
// through spinlock.OnContention.
func LockFactory(fair bool, world spinlock.GCWorld, observe func(iters int64)) core.LockFactory {
	if v := reflect.ValueOf(world); v.Kind() == reflect.Pointer && v.IsNil() {
		world = nil
	}
	switch {
	case fair:
		return FairFactory(world, observe)
	case world != nil:
		return spinlock.GCAware(core.NewMutexLock, world)
	}
	return core.NewMutexLock
}

// TryLock claims the lock only if it is free *and* no claim is queued:
// it atomically advances the ticket counter from the now-serving value.
// A TryLock can therefore never overtake a queued claimant — callers
// with an abort discipline (the shard stealer) back off instead of
// cutting the line.
func (f *FairLock) TryLock() bool {
	t := f.serving.Load()
	return f.next.CompareAndSwap(t, t+1)
}

// Lock claims a queue position and waits, cooperatively, for its grant.
func (f *FairLock) Lock() { f.await(f.claim()) }

// Unlock releases the lock, handing it to the head queued claimant (if
// any) rather than re-opening a race.  Any proc may call it.
func (f *FairLock) Unlock() {
	f.serving.Add(1)
}

// QueueDepth reports how many claims are outstanding, counting the
// holder: 0 means unlocked, 1 held and uncontended, n>1 held with n-1
// queued claimants.  Racy by nature; for observability only.
func (f *FairLock) QueueDepth() int64 {
	return int64(f.next.Load() - f.serving.Load())
}

// claim draws this claimant's ticket — its FIFO queue position.  Split
// from await so tests can register claims in a known order and assert
// grants follow it.
func (f *FairLock) claim() uint64 { return f.next.Add(1) - 1 }

// await waits until ticket t is granted.  The loop yields every
// iteration (cooperative scheduling, not a spin budget) and takes the
// GC section as a safe point first, so a queued claimant can never
// convoy a collection: if the holder is stopped at the clean-point
// barrier, every waiter behind it is helping the collection, not
// spinning on the grant the stopped holder cannot issue.
func (f *FairLock) await(t uint64) {
	var iters int64
	for {
		if w := f.w; w != nil && w.InSection() {
			w.SectionPoint()
		}
		if f.serving.Load() == t {
			break
		}
		iters++
		runtime.Gosched()
	}
	if iters > 0 {
		if h := spinlock.OnContention; h != nil {
			h(iters)
		}
	}
	if ob := f.observe; ob != nil {
		ob(iters)
	}
}
