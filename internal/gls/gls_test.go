package gls

import (
	"runtime"
	"sync"
	"testing"
)

func TestIDStable(t *testing.T) {
	a, b := ID(), ID()
	if a != b {
		t.Fatalf("ID not stable within a goroutine: %d vs %d", a, b)
	}
}

func TestIDDistinctAcrossGoroutines(t *testing.T) {
	self := ID()
	ch := make(chan uint64)
	go func() { ch <- ID() }()
	other := <-ch
	if self == other {
		t.Fatalf("two goroutines share id %d", self)
	}
}

func TestSetGetDel(t *testing.T) {
	if _, ok := Get(); ok {
		t.Fatal("fresh goroutine has a baton")
	}
	Set("hello")
	v, ok := Get()
	if !ok || v != "hello" {
		t.Fatalf("Get = %v, %v; want hello, true", v, ok)
	}
	Set(42)
	if v, _ := Get(); v != 42 {
		t.Fatalf("overwrite failed: got %v", v)
	}
	Del()
	if _, ok := Get(); ok {
		t.Fatal("baton survives Del")
	}
}

func TestIsolationAcrossGoroutines(t *testing.T) {
	const n = 64
	var wg sync.WaitGroup
	errs := make(chan string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			Set(i)
			defer Del()
			for j := 0; j < 100; j++ {
				v, ok := Get()
				if !ok || v != i {
					errs <- "cross-goroutine contamination"
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestLenCountsLeaks(t *testing.T) {
	before := Len()
	done := make(chan struct{})
	release := make(chan struct{})
	go func() {
		Set("leak")
		done <- struct{}{}
		<-release
		Del()
		done <- struct{}{}
	}()
	<-done
	if Len() != before+1 {
		t.Fatalf("Len = %d, want %d", Len(), before+1)
	}
	close(release)
	<-done
	if Len() != before {
		t.Fatalf("after Del, Len = %d, want %d", Len(), before)
	}
}

func BenchmarkID(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ID()
	}
}

func BenchmarkGet(b *testing.B) {
	Set("bench")
	defer Del()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Get()
	}
}

// TestIDStableAcrossStackGrowth pins the register path's contract: the
// identity must survive stack growth and moves (g structs never move even
// when their stacks are copied).
func TestIDStableAcrossStackGrowth(t *testing.T) {
	id := ID()
	var grow func(n int) uint64
	grow = func(n int) uint64 {
		var pad [1 << 10]byte
		pad[0] = byte(n)
		if n == 0 {
			return ID()
		}
		deep := grow(n - 1)
		_ = pad
		return deep
	}
	// ~256KB of frames forces several stack copies.
	if deep := grow(256); deep != id {
		t.Fatalf("ID changed across stack growth: %#x -> %#x", id, deep)
	}
	if after := ID(); after != id {
		t.Fatalf("ID changed after stack shrink: %#x -> %#x", id, after)
	}
}

// TestIDDistinctAmongLiveGoroutines: identities of concurrently-live
// goroutines never collide (dead goroutines may donate theirs onward, so
// all must be held live while compared).
func TestIDDistinctAmongLiveGoroutines(t *testing.T) {
	const n = 256
	ids := make([]uint64, n)
	var wg, ready sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		ready.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = ID()
			ready.Done()
			<-release
		}(i)
	}
	ready.Wait()
	seen := make(map[uint64]int, n)
	for i, id := range ids {
		if j, dup := seen[id]; dup {
			t.Fatalf("goroutines %d and %d share id %#x", i, j, id)
		}
		seen[id] = i
	}
	close(release)
	wg.Wait()
}

// ---- the index and its slots -----------------------------------------

// TestChurnWithGReuse: waves of goroutines that Set, Get, Del and exit.
// Each wave runs on g structs the previous wave gave back, so every slot
// is inherited many times over; no goroutine may start with a baton or
// ever read one that is not its own.
func TestChurnWithGReuse(t *testing.T) {
	const perWave, waves, reads = 1000, 10, 20
	base := Len()
	for w := 0; w < waves; w++ {
		var wg sync.WaitGroup
		for i := 0; i < perWave; i++ {
			wg.Add(1)
			go func(me int) {
				defer wg.Done()
				if v, ok := Get(); ok {
					t.Errorf("goroutine starts with baton %v", v)
				}
				for r := 0; r < reads; r++ {
					Set(me + r)
					if v, ok := Get(); !ok || v != me+r {
						t.Errorf("Get = %v, %v; want %d", v, ok, me+r)
						break
					}
					if r%4 == 0 {
						runtime.Gosched()
					}
				}
				Del()
				if v, ok := Get(); ok {
					t.Errorf("baton %v survives Del", v)
				}
			}(w*perWave*reads + i*reads)
		}
		wg.Wait()
		if n := Len(); n != base {
			t.Fatalf("wave %d: Len = %d, want %d", w, n, base)
		}
	}
}

// TestIndexGrowsUnderParkedHolders: thousands of goroutines hold a baton
// at once — the shape of idle keep-alive connections — so the index
// doubles several times while earlier holders are parked; all of them,
// the first inserted and the last included, still find their own slot.
func TestIndexGrowsUnderParkedHolders(t *testing.T) {
	base := Len()
	var ready, done sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < parkedHolders; i++ {
		ready.Add(1)
		done.Add(1)
		go func(me int) {
			defer done.Done()
			Set(me)
			ready.Done()
			<-release
			if v, ok := Get(); !ok || v != me {
				t.Errorf("holder %d reads %v, %v after the index grew", me, v, ok)
			}
			Del()
		}(i)
	}
	ready.Wait()
	if n := Len(); n != base+parkedHolders {
		t.Errorf("Len = %d with %d parked holders, want %d", n, parkedHolders, base+parkedHolders)
	}
	if c := len(cur.Load().entries); c <= 1<<initialBits || c < 2*parkedHolders {
		t.Errorf("index has %d entries for %d keys: it must have grown from %d and be at most half full",
			c, parkedHolders, 1<<initialBits)
	}
	close(release)
	done.Wait()
	if n := Len(); n != base {
		t.Errorf("Len = %d after every holder left, want %d", n, base)
	}
}

// TestDeadGoroutineKeyReadsUnset: the slot outlives its goroutine (the
// index is insert-only), the baton does not — so whoever next runs under
// that identity reads it as unset.  The runtime hands the recycled g to
// some later goroutine of its choosing, usually not one this test can
// name, so the key is also looked up directly.
func TestDeadGoroutineKeyReadsUnset(t *testing.T) {
	ids := make(chan uint64)
	go func() {
		Set("mortal")
		Del()
		ids <- ID()
	}()
	dead := <-ids
	s := find(dead)
	if s == nil {
		t.Fatal("a dead goroutine's key left the index: it is insert-only")
	}
	if s.set.Load() || s.v != nil {
		t.Fatalf("a dead goroutine's slot still holds %v", s.v)
	}
	type seen struct {
		id  uint64
		v   any
		set bool
	}
	for try := 0; try < 100; try++ {
		ch := make(chan seen)
		go func() {
			v, ok := Get()
			ch <- seen{ID(), v, ok}
		}()
		if got := <-ch; got.set {
			t.Fatalf("fresh goroutine %#x (dead one was %#x) reads baton %v", got.id, dead, got.v)
		}
	}
}

func BenchmarkSetDel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Set(i)
		Del()
	}
}
