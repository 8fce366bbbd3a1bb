package syncx

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/proc"
	"repro/internal/threads"
)

func TestFairLockBasic(t *testing.T) {
	l := new(FairLock)
	if d := l.QueueDepth(); d != 0 {
		t.Fatalf("fresh lock QueueDepth = %d, want 0", d)
	}
	if !l.TryLock() {
		t.Fatal("TryLock on a free lock failed")
	}
	if l.TryLock() {
		t.Fatal("TryLock on a held lock succeeded")
	}
	if d := l.QueueDepth(); d != 1 {
		t.Fatalf("held lock QueueDepth = %d, want 1", d)
	}
	l.Unlock()
	l.Lock()
	l.Unlock()
	if d := l.QueueDepth(); d != 0 {
		t.Fatalf("released lock QueueDepth = %d, want 0", d)
	}
}

// TestFairLockTryLockNeverOvertakes pins the claim/release protocol's
// no-line-cutting rule: once any claim is queued, TryLock fails even at
// the exact moment the lock is released, because the release hands the
// grant to the head claimant instead of re-opening a race.
func TestFairLockTryLockNeverOvertakes(t *testing.T) {
	l := new(FairLock)
	l.Lock()        // holder: ticket 0
	tk := l.claim() // queued claimant: ticket 1
	if l.TryLock() {
		t.Fatal("TryLock succeeded with a claim queued")
	}
	l.Unlock() // grant passes to ticket 1, not to a TryLock racer
	if l.TryLock() {
		t.Fatal("TryLock overtook the queued claimant after release")
	}
	l.await(tk) // granted immediately
	l.Unlock()
	if !l.TryLock() {
		t.Fatal("TryLock failed on a drained queue")
	}
	l.Unlock()
}

// TestFairLockFIFOOrder is the fairness property test: N contending MP
// threads each register a claim, then record the order grants arrive.
// The protocol promises grants in claim order — zero overtaking — so
// the grant log must equal the ticket sequence exactly.  Run under
// -race this also exercises the handoff's happens-before edge (the
// critical-section writes to the shared log are ordered by the lock
// alone).
func TestFairLockFIFOOrder(t *testing.T) {
	const (
		procs   = 4
		workers = 8
		rounds  = 50
	)
	l := new(FairLock)
	var grants []uint64
	s := threads.New(proc.New(procs), threads.Options{})
	s.Run(func() {
		wg := NewWaitGroup(s, workers)
		for i := 0; i < workers; i++ {
			s.Fork(func() {
				for r := 0; r < rounds; r++ {
					tk := l.claim()
					l.await(tk)
					grants = append(grants, tk)
					l.Unlock()
					s.Yield()
				}
				wg.Done()
			})
		}
		wg.Wait()
	})
	if len(grants) != workers*rounds {
		t.Fatalf("recorded %d grants, want %d", len(grants), workers*rounds)
	}
	for i, tk := range grants {
		if tk != uint64(i) {
			t.Fatalf("grant %d went to ticket %d: claim order violated (overtaking)", i, tk)
		}
	}
}

// fakeGCWorld is a GC world whose section stays pending until enough
// claimants have taken the section point.
type fakeGCWorld struct {
	pending atomic.Bool
	points  atomic.Int64
	need    int64
}

func (w *fakeGCWorld) InSection() bool { return w.pending.Load() }

func (w *fakeGCWorld) SectionPoint() {
	if w.points.Add(1) >= w.need {
		w.pending.Store(false)
	}
}

// TestFairLockQueuedClaimantTakesSectionPoint checks the GC-aware claim
// loop: a claimant queued behind a holder that never releases during
// the collection must still take the world's section point, so a
// stop-the-world can complete with a full claim queue.  The fake world
// "completes" its collection only after the queued claimant has
// contributed section points; the holder never takes one.
func TestFairLockQueuedClaimantTakesSectionPoint(t *testing.T) {
	w := &fakeGCWorld{need: 3}
	l := FairFactory(w, nil)().(*FairLock)
	l.Lock() // holder; takes no section points while holding

	w.pending.Store(true) // collection raised while the lock is held
	done := make(chan struct{})
	go func() {
		l.Lock() // queued claimant: must help the collection while waiting
		l.Unlock()
		close(done)
	}()

	// The collection must finish on the claimant's section points alone,
	// while the lock is still held.
	for w.InSection() {
	}
	if got := w.points.Load(); got < w.need {
		t.Fatalf("collection finished after %d section points, want >= %d", got, w.need)
	}
	l.Unlock()
	<-done
}

// TestFairLockObserver checks the wait-time observer contract: called
// once per Lock with the claim-loop yield count — zero when the grant
// was immediate, positive when queued.
func TestFairLockObserver(t *testing.T) {
	var calls, waited atomic.Int64
	l := FairFactory(nil, func(iters int64) {
		calls.Add(1)
		waited.Add(iters)
	})().(*FairLock)

	l.Lock() // uncontended
	l.Unlock()
	if c, w := calls.Load(), waited.Load(); c != 1 || w != 0 {
		t.Fatalf("uncontended Lock: observer calls=%d waited=%d, want 1, 0", c, w)
	}

	l.Lock()
	var wg sync.WaitGroup
	wg.Add(1)
	started := make(chan struct{})
	go func() {
		defer wg.Done()
		close(started)
		l.Lock() // queued: must report a positive wait
		l.Unlock()
	}()
	<-started
	for l.QueueDepth() < 2 { // wait until the claim is registered
	}
	l.Unlock()
	wg.Wait()
	if c, w := calls.Load(), waited.Load(); c != 3 || w <= 0 {
		t.Fatalf("contended Lock: observer calls=%d waited=%d, want 3 calls and waited > 0", c, w)
	}
}
