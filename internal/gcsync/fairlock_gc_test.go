package gcsync

// Regression coverage for the fair claim/release protocol's GC
// composition (MPL's lockTake discipline): claimants parked
// in a FairLock's FIFO queue during a stop-the-world must not stall the
// parallel collection.  The fair queue is the worst case for the MPL
// lockTake discipline — the holder never releases during the stop and
// every queued claimant is ordered behind it, so if the claim loop were
// not a safe point the whole queue would convoy the barrier.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mlheap"
	"repro/internal/spinlock"
	"repro/internal/syncx"
)

// TestFairLockSaturatedQueueDoesNotStallSTW: the claim queue is first
// saturated — a holder plus several queued claimants, one of them a
// bound allocating proc — and only then is a collection raised.  The
// stop must complete while the lock is still held and the queue still
// full: the bound claimant joins the clean-point barrier from inside
// its claim loop, the unbound ones help copy, and nobody waits for a
// grant the stopped holder cannot issue.
func TestFairLockSaturatedQueueDoesNotStallSTW(t *testing.T) {
	const queued = 3 // unbound claimants behind the bound one
	w := NewWorld(parCfg(2))
	lock := syncx.FairFactory(w, nil)().(*syncx.FairLock)

	// The lock is held by this test goroutine — NOT an attached proc —
	// for the entire collection, so no grant can free the queue.
	lock.Lock()
	a, b := w.Attach(), w.Attach()

	var gcDone atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1 + queued)

	// The bound proc claims first: its only clean point while queued is
	// the one the fair claim loop takes.
	go func() {
		defer wg.Done()
		defer b.Detach()
		b.Bind()
		defer b.Unbind()
		lock.Lock()
		if !gcDone.Load() {
			t.Error("bound claimant granted before the collection finished")
		}
		lock.Unlock()
	}()
	// Unbound claimants (front-style threads): they help the copy from
	// their claim loops.
	for i := 0; i < queued; i++ {
		go func() {
			defer wg.Done()
			lock.Lock()
			if !gcDone.Load() {
				t.Error("queued claimant granted before the collection finished")
			}
			lock.Unlock()
		}()
	}

	// Saturate the queue before raising the collection: holder + bound
	// claimant + the unbound ones must all hold tickets.
	deadline := time.Now().Add(10 * time.Second)
	for lock.QueueDepth() < int64(2+queued) {
		if time.Now().After(deadline) {
			t.Fatalf("claim queue never saturated: depth %d", lock.QueueDepth())
		}
		time.Sleep(time.Millisecond)
	}

	// Proc A exhausts the nursery and raises the stop, then waits at the
	// barrier for proc B — who is sitting in the claim queue.
	var allocWG sync.WaitGroup
	allocWG.Add(1)
	go func() {
		defer allocWG.Done()
		defer a.Detach()
		var root mlheap.Value = mlheap.Nil
		a.AddRoot(&root)
		defer a.RemoveRoot(&root)
		for w.GCs() == 0 {
			root = a.Record(mlheap.Int(1), root)
		}
	}()

	// The collection must complete while the lock is still held and the
	// claim queue still saturated.
	for w.GCs() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("collection did not complete with a saturated claim queue")
		}
		time.Sleep(time.Millisecond)
	}
	if d := lock.QueueDepth(); d < int64(2+queued) {
		t.Errorf("claim queue drained to %d during the stop; no grant should have been issued", d)
	}
	gcDone.Store(true)
	lock.Unlock()
	wg.Wait()
	allocWG.Wait()

	snap := w.Heap().Metrics().Snapshot()
	if snap.Get("gcsync.section_entries") == 0 {
		t.Fatal("fair claim loop took no section entries")
	}
}

// TestLockFactoryPollsIffWorld: the fabric's one lock constructor must
// install the GC-section poll exactly when it is handed a world.  A nil
// *World inside the interface — what an unset serve.Options.MLWorld
// becomes when passed straight through — counts as no world: the poll
// would dereference it on the first Lock, so surviving Lock is the
// proof the poll was left out.
func TestLockFactoryPollsIffWorld(t *testing.T) {
	live := NewWorld(parCfg(1))
	sections := func() int64 {
		return live.Heap().Metrics().Snapshot().Get("gcsync.section_entries")
	}
	worlds := []struct {
		name string
		w    spinlock.GCWorld
	}{
		{"nil", nil},
		{"typed-nil", (*World)(nil)},
		{"live", live},
	}
	for _, tc := range worlds {
		lock := syncx.FairFactory(tc.w, nil)()
		// A pending section with no plan and an unbound goroutine: a
		// polling acquisition counts one section entry and yields.
		live.gcFlag.Store(true)
		before := sections()
		lock.Lock()
		if lock.TryLock() {
			t.Errorf("world=%s: TryLock succeeded on a held lock", tc.name)
		}
		lock.Unlock()
		live.gcFlag.Store(false)
		if polled := sections() > before; polled != (tc.w == live) {
			t.Errorf("world=%s: polled the live world = %v", tc.name, polled)
		}
	}
}
