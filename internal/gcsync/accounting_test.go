package gcsync

// mlheap.alloc_words is published when a proc's chunk is retired, not
// per allocation (see mlheap.ProcAlloc).  Through a World that means:
// the counter trails the truth by at most one chunk per attached proc,
// is exact once the procs detach, and can be scraped while procs
// allocate without reading any running proc's bump pointer.

import (
	"sync"
	"testing"

	"repro/internal/mlheap"
)

// TestAllocWordsLagBound: k procs mid-chunk hide at most k·ChunkWords
// from the counter, and nothing once they have detached.
func TestAllocWordsLagBound(t *testing.T) {
	const k, chunk = 4, 256
	w := NewWorld(mlheap.Config{NurseryWords: 1 << 14, SemiWords: 1 << 16, ChunkWords: chunk, Procs: k})
	var allocs [k]*Alloc
	var truth int64
	for p := range allocs {
		allocs[p] = w.Attach()
		// 3-word cells: some procs stay in their first chunk, some cross
		// into a second or third; every one ends mid-chunk.
		for i := 0; i < 40+p*67; i++ {
			allocs[p].Record(mlheap.Int(int64(i)), mlheap.Nil)
			truth += 3
		}
	}
	if w.GCs() != 0 {
		t.Fatal("the script was meant to stay inside the nursery")
	}
	lag := truth - w.Heap().Stats().AllocatedWords
	if lag <= 0 || lag > k*chunk {
		t.Fatalf("with %d procs mid-chunk alloc_words trails by %d words, want within (0, %d]", k, lag, k*chunk)
	}
	for _, a := range allocs {
		a.Detach()
	}
	if got := w.Heap().Stats().AllocatedWords; got != truth {
		t.Fatalf("after every proc detached alloc_words = %d, want exactly %d", got, truth)
	}
}

// TestScrapeDuringAllocation: a metrics scraper runs flat out while four
// procs allocate to exhaustion and collect, over and over.  Under -race
// this is the proof that Stats and Snapshot read no running proc's bump
// pointer; the values it sees never go backwards, and the total is exact
// once the procs are gone.
func TestScrapeDuringAllocation(t *testing.T) {
	for _, sequential := range []bool{false, true} {
		const procs, cells = 4, 6000
		w := NewWorld(parCfg(procs))
		w.SetSequential(sequential)
		h := w.Heap()

		stop, stopped := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(stopped)
			var lastStats, lastSnap int64
			for {
				st, snap := h.Stats().AllocatedWords, h.Metrics().Snapshot().Get("mlheap.alloc_words")
				if st < lastStats || snap < lastSnap {
					t.Errorf("alloc_words went backwards: Stats %d -> %d, Snapshot %d -> %d", lastStats, st, lastSnap, snap)
				}
				lastStats, lastSnap = st, snap
				select {
				case <-stop:
					return
				default:
				}
			}
		}()

		var wg sync.WaitGroup
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				a := w.Attach()
				defer a.Detach()
				var list mlheap.Value = mlheap.Nil
				a.AddRoot(&list)
				defer a.RemoveRoot(&list)
				for i := 0; i < cells; i++ {
					if i%300 == 0 {
						list = mlheap.Nil // keep the live set small: many minors, no escalation
					}
					list = a.Record(mlheap.Int(int64(i)), list)
				}
			}()
		}
		wg.Wait()
		close(stop)
		<-stopped
		if w.GCs() < 10 {
			t.Fatalf("sequential=%v: only %d collections; the procs were meant to exhaust the nursery repeatedly", sequential, w.GCs())
		}
		if got, want := h.Stats().AllocatedWords, int64(procs*cells*3); got != want {
			t.Fatalf("sequential=%v: alloc_words = %d after the procs detached, want exactly %d", sequential, got, want)
		}
	}
}
