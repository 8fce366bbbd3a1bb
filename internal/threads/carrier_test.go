package threads

// The scheduler over recycled carriers: every Fork, Yield and Blocking
// below runs its body on a goroutine some earlier thread left idle, and
// the package's own dispatches return to it instead of unwinding.

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gls"
	"repro/internal/proc"
)

// TestMixedOpsLoseNoThread: 10⁵ Fork/Yield/Blocking operations, mixed per
// thread, on 1, 2 and 4 OS-level processors.  Every forked thread must run
// to its end exactly once and the system must quiesce (a thread handed to
// a carrier that was not really idle, or a proc given away twice, shows as
// a lost thread or a hang), leaving no baton behind.
func TestMixedOpsLoseNoThread(t *testing.T) {
	const workers, rounds = 50, 500 // × 4 operations a round = 10⁵
	for _, n := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(n)
		base := gls.Len()
		pl := proc.New(4)
		s := New(pl, Options{Distributed: n > 1})
		var forked, finished, ops atomic.Int64
		thread := func(body func()) {
			forked.Add(1)
			s.Fork(func() {
				body()
				finished.Add(1)
			})
		}
		runOrHang(t, s, 2*time.Minute, func() {
			for w := 0; w < workers; w++ {
				thread(func() {
					for r := 0; r < rounds; r++ {
						s.Yield()
						thread(s.Yield)
						s.Blocking(runtime.Gosched)
						ops.Add(4) // the child's yield included
					}
				})
			}
		})
		runtime.GOMAXPROCS(prev)
		if got, want := ops.Load(), int64(workers*rounds*4); got != want {
			t.Errorf("GOMAXPROCS %d: %d operations ran, want %d", n, got, want)
		}
		if f, d := forked.Load(), finished.Load(); f != d || f != workers*(rounds+1) {
			t.Errorf("GOMAXPROCS %d: %d threads forked, %d finished, want %d of each", n, f, d, workers*(rounds+1))
		}
		if live := pl.Live(); live != 0 {
			t.Errorf("GOMAXPROCS %d: %d procs live after quiescence", n, live)
		}
		waitLen(t, base)
	}
}

// waitLen waits for gls.Len to come back to base: the last jobs' frames
// unwind (clearing their batons) just after Run has seen quiescence.
func waitLen(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for gls.Len() > base {
		if time.Now().After(deadline) {
			t.Fatalf("gls.Len = %d, want %d: a baton was left on a finished goroutine", gls.Len(), base)
		}
		runtime.Gosched()
	}
}

// TestThreadIDsStartAtOneAndStayUnique: ids come from one atomic add, so
// forks racing on every proc still draw distinct ids, and each Run numbers
// its threads from 1 (the root is 0).
func TestThreadIDsStartAtOneAndStayUnique(t *testing.T) {
	const forkers, each = 8, 200
	s := New(proc.New(4), Options{})
	for run := 0; run < 2; run++ {
		seen := make([]atomic.Int32, forkers*(each+1)+1)
		s.Run(func() {
			if id := s.ID(); id != 0 {
				t.Errorf("root thread id = %d, want 0", id)
			}
			for f := 0; f < forkers; f++ {
				s.Fork(func() {
					seen[s.ID()].Add(1)
					for i := 0; i < each; i++ {
						s.Fork(func() { seen[s.ID()].Add(1) })
					}
				})
			}
		})
		for id := 1; id < len(seen); id++ {
			if n := seen[id].Load(); n != 1 {
				t.Fatalf("run %d: thread id %d drawn %d times, want once (ids 1..%d)", run, id, n, len(seen)-1)
			}
		}
	}
}

// TestDispatchRejectsEntryThatKeepsItsProc: an Entry.Run that comes back
// without having handed the proc on is a client bug dispatch reports.
func TestDispatchRejectsEntryThatKeepsItsProc(t *testing.T) {
	s := New(proc.New(1), Options{})
	var got any
	s.Run(func() {
		s.Reschedule(func() {}, 7)
		defer func() { got = recover() }()
		s.Dispatch()
	})
	if got != "threads: Entry.Run returned holding its proc" {
		t.Fatalf("dispatch of a returning Entry.Run: recovered %v", got)
	}
}
