package gcsync

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mlheap"
	"repro/internal/spinlock"
)

// parCfg sizes a world so the parallel collection path actually runs
// (see mlheap's parNeed capacity pre-check).
func parCfg(procs int) mlheap.Config {
	return mlheap.Config{
		NurseryWords: 4096,
		SemiWords:    16384,
		ChunkWords:   128,
		RegionWords:  64,
		Procs:        procs,
	}
}

// TestRecordNoGCPathAllocationFree: the Record fast path must not touch
// the Go heap — the in-flight root cells are only materialized when a
// collection actually interrupts the call (satellite: zero-alloc
// Record).
func TestRecordNoGCPathAllocationFree(t *testing.T) {
	w := NewWorld(parCfg(1))
	a := w.Attach()
	defer a.Detach()
	x := a.Record(mlheap.Int(1), mlheap.Int(2))
	allocs := testing.AllocsPerRun(50, func() {
		x = a.Record(mlheap.Int(3), x, mlheap.Int(4))
	})
	if allocs != 0 {
		t.Fatalf("Record no-GC path allocates %.1f objects per call, want 0", allocs)
	}
}

// TestGCAwareLockSpinnerJoins is the MPL scenario: a proc spinning on a
// held GC-aware lock must join a pending collection mid-spin, so the
// collection completes even though the lock is never released.  Without
// the GCAware wrapper the spinner would never reach a clean point and
// the world would deadlock here.
func TestGCAwareLockSpinnerJoins(t *testing.T) {
	w := NewWorld(parCfg(2))
	lock := spinlock.GCAware(spinlock.NewTAS, w)()

	// The lock is held by this test goroutine — which is NOT an attached
	// proc — for the entire collection.  Both procs attach before any
	// allocation so the barrier always awaits both.
	lock.Lock()
	a, b := w.Attach(), w.Attach()

	var gcDone atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)

	// Proc A exhausts the nursery and raises a collection, then waits at
	// the barrier for proc B.
	go func() {
		defer wg.Done()
		defer a.Detach()
		var root mlheap.Value = mlheap.Nil
		a.AddRoot(&root)
		defer a.RemoveRoot(&root)
		for w.GCs() == 0 {
			root = a.Record(mlheap.Int(1), root)
		}
	}()

	// Proc B binds its goroutine and spins on the held lock.  Its only
	// clean point is the one the GC-aware spin loop takes.
	go func() {
		defer wg.Done()
		defer b.Detach()
		b.Bind()
		defer b.Unbind()
		lock.Lock()
		// The lock was only released after the collection completed.
		if !gcDone.Load() {
			t.Error("spinner acquired the lock before the collection finished")
		}
		lock.Unlock()
	}()

	// Wait for the collection to complete WHILE the lock is still held:
	// proves the spinner joined rather than convoying the stop.
	deadline := time.Now().Add(10 * time.Second)
	for w.GCs() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("collection did not complete while lock was held: spinner never joined")
		}
		time.Sleep(time.Millisecond)
	}
	gcDone.Store(true)
	lock.Unlock()
	wg.Wait()

	snap := w.Heap().Metrics().Snapshot()
	if snap.Get("gcsync.section_entries") == 0 {
		t.Fatal("GC-aware spin path took no section entries")
	}
}

// TestVirtualClockPauses pins the pause accounting with a deterministic
// tick source: every collection observes exactly one tick of stop time
// (request -> all procs stopped) and two ticks of pause (request ->
// world released), regardless of how long the copy really took.
func TestVirtualClockPauses(t *testing.T) {
	w := NewWorld(parCfg(1))
	var ticks int64
	w.SetNow(func() int64 { ticks++; return ticks })
	a := w.Attach()
	defer a.Detach()

	var root mlheap.Value = mlheap.Nil
	a.AddRoot(&root)
	defer a.RemoveRoot(&root)
	for w.GCs() < 3 {
		root = a.Record(mlheap.Int(7), root)
		root = mlheap.Nil // retain nothing; churn until three collections
	}

	s := w.PauseSummary()
	if s.Count != 3 {
		t.Fatalf("PauseSummary.Count = %d, want 3", s.Count)
	}
	if s.P50 != 2 || s.P99 != 2 || s.Max != 2 {
		t.Fatalf("pause summary = %+v, want P50=P99=Max=2 ticks", s)
	}
	snap := w.Heap().Metrics().Snapshot()
	if got := snap.Histograms["mlheap.gc_pause_ticks"].Count; got != 3 {
		t.Fatalf("gc_pause_ticks count = %d, want 3", got)
	}
	if got := snap.Histograms["mlheap.gc_stop_ticks"].Count; got != 3 {
		t.Fatalf("gc_stop_ticks count = %d, want 3", got)
	}
	if got := snap.Get("mlheap.gc_max_pause_ticks"); got != 2 {
		t.Fatalf("gc_max_pause_ticks = %d, want 2", got)
	}
}

// TestParallelWorldTorture runs many allocating procs through repeated
// parallel collections under -race: every proc keeps a private list and
// re-verifies its full contents after the churn.
func TestParallelWorldTorture(t *testing.T) {
	const procs, cells = 6, 1500
	w := NewWorld(parCfg(procs))
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			a := w.Attach()
			defer a.Detach()
			var list mlheap.Value = mlheap.Nil
			a.AddRoot(&list)
			defer a.RemoveRoot(&list)
			for i := 0; i < cells; i++ {
				list = a.Record(mlheap.Int(int64(p*cells+i)), list)
			}
			// Walk the whole list: every cell must have survived every
			// collection intact and in order.
			h := w.Heap()
			for i := cells - 1; i >= 0; i-- {
				if got := h.Get(list, 0).Int(); got != int64(p*cells+i) {
					t.Errorf("proc %d: cell %d holds %d", p, i, got)
					return
				}
				list = h.Get(list, 1)
			}
			if list != mlheap.Nil {
				t.Errorf("proc %d: list tail not Nil", p)
			}
		}(p)
	}
	wg.Wait()
	if w.GCs() == 0 {
		t.Fatal("torture run performed no collections")
	}
	if w.Heap().Stats().MinorGCs == 0 {
		t.Fatal("no minor collections recorded")
	}
}

// TestSequentialAblationFlag: SetSequential must select the paper's
// one-collector path and still collect correctly.
func TestSequentialAblationFlag(t *testing.T) {
	w := NewWorld(parCfg(2))
	w.SetSequential(true)
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			a := w.Attach()
			defer a.Detach()
			var list mlheap.Value = mlheap.Nil
			a.AddRoot(&list)
			defer a.RemoveRoot(&list)
			for i := 0; i < 800; i++ {
				list = a.Record(mlheap.Int(int64(i)), list)
			}
			h := w.Heap()
			for i := 799; i >= 0; i-- {
				if h.Get(list, 0).Int() != int64(i) {
					t.Errorf("proc %d: cell %d corrupted", p, i)
					return
				}
				list = h.Get(list, 1)
			}
		}(p)
	}
	wg.Wait()
	if w.GCs() == 0 {
		t.Fatal("sequential world performed no collections")
	}
}

// TestTryAttachRefusals: TryAttach must refuse while a collection is
// pending and when all proc slots are taken, and succeed again after
// Detach returns a slot to the pool.
func TestTryAttachRefusals(t *testing.T) {
	w := NewWorld(parCfg(2))
	a := w.TryAttach()
	b := w.TryAttach()
	if a == nil || b == nil {
		t.Fatal("TryAttach failed with free slots")
	}
	if c := w.TryAttach(); c != nil {
		t.Fatal("TryAttach succeeded beyond the proc limit")
	}
	b.Detach()
	c := w.TryAttach()
	if c == nil {
		t.Fatal("TryAttach failed after a slot was released")
	}
	c.Detach()
	a.Detach()
}
