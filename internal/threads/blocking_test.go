package threads

// Tests for the two rules that keep waiters from holding procs: a
// thread inside an OS call has released its proc (Blocking), and an
// enqueue from outside the system acquires one if a slot is idle
// (Reschedule's wake).  None of them is gated on a sleep: each waits on
// the state it is about.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cont"
	"repro/internal/core"
	"repro/internal/proc"
	"repro/internal/trace"
)

// runOrHang runs body under s.Run and fails the test, instead of
// hanging it, if the system has not quiesced within the budget.
func runOrHang(t *testing.T, s *System, budget time.Duration, body func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		s.Run(body)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(budget):
		t.Fatalf("system did not quiesce within %v: queued work was left with no proc to run it", budget)
	}
}

// TestShrinkRegrowWithQueuedWorkNeverStrands is the regression for the
// double leave: dispatch used to read Revoked() and then Release() as
// two steps, so when the allowance shrank 2→1 both procs could see the
// revocation and both leave — zero procs, work still queued, Run never
// returns.  Each round shrinks and regrows the allowance under a
// standing population of yielding threads, which puts both procs at
// dispatch safe points around the SetLimit as often as possible.
func TestShrinkRegrowWithQueuedWorkNeverStrands(t *testing.T) {
	const rounds, yielders = 4000, 6
	pl := proc.New(2)
	s := New(pl, Options{})
	var stop atomic.Bool
	var finished atomic.Int32
	runOrHang(t, s, 2*time.Minute, func() {
		for i := 0; i < yielders; i++ {
			s.Fork(func() {
				for !stop.Load() {
					s.Yield()
				}
				finished.Add(1)
			})
		}
		for r := 0; r < rounds; r++ {
			pl.SetLimit(1)
			s.Yield()
			pl.SetLimit(2)
			s.Fork(func() { s.Yield() }) // lets the second proc come back
		}
		stop.Store(true)
	})
	if finished.Load() != yielders {
		t.Fatalf("%d of %d threads finished", finished.Load(), yielders)
	}
	if live := pl.Live(); live != 0 {
		t.Fatalf("live procs after quiescence = %d", live)
	}
}

// TestBlockingConservesTokens: threads churning through Blocking on a
// two-proc allowance never push the live count past it — a thread back
// from its call either finds a slot or queues — and every token is back
// in the pool at the end.
func TestBlockingConservesTokens(t *testing.T) {
	const limit, nThreads, calls = 2, 8, 300
	pl := proc.New(4)
	pl.SetLimit(limit)
	s := New(pl, Options{})
	var over atomic.Int32
	var finished atomic.Int32
	check := func() {
		if pl.Live() > limit {
			over.Add(1)
		}
	}
	runOrHang(t, s, 2*time.Minute, func() {
		for i := 0; i < nThreads; i++ {
			s.Fork(func() {
				for j := 0; j < calls; j++ {
					s.Blocking(runtime.Gosched)
					check()
					if j%7 == 0 {
						s.Yield()
					}
				}
				finished.Add(1)
			})
		}
	})
	if finished.Load() != nThreads {
		t.Fatalf("%d of %d threads finished", finished.Load(), nThreads)
	}
	if n := over.Load(); n != 0 {
		t.Errorf("Live() exceeded the allowance of %d on %d observations", limit, n)
	}
	if live := pl.Live(); live != 0 {
		t.Errorf("live procs after quiescence = %d", live)
	}
	st := pl.Stats()
	if st.Created > limit+1 { // the root token plus the allowance's worth
		t.Errorf("created %d tokens under an allowance of %d", st.Created, limit)
	}
	if got := pl.Metrics().Snapshot().Get("proc.blocking_calls"); got != nThreads*calls {
		t.Errorf("proc.blocking_calls = %d, want %d", got, nThreads*calls)
	}
}

// TestBlockingKeepsThePlatformAlive: a system whose only thread is
// inside a blocking call holds no proc at all, and must nevertheless not
// quiesce — the thread is coming back.
func TestBlockingKeepsThePlatformAlive(t *testing.T) {
	pl := proc.New(2)
	s := New(pl, Options{})
	inside, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var after int
	go func() {
		s.Run(func() {
			s.Blocking(func() {
				close(inside)
				<-release
			})
			after = s.ID() // an MP call: only legal on a proc again
		})
		close(done)
	}()
	<-inside
	if live := pl.Live(); live != 0 {
		t.Errorf("live = %d with the only thread inside Blocking, want 0: the proc was not released", live)
	}
	select {
	case <-done:
		t.Fatal("Run returned while a thread was inside Blocking")
	default:
	}
	close(release)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after the blocking call ended")
	}
	if after != 0 {
		t.Errorf("thread id after Blocking = %d, want the root thread's 0", after)
	}
}

// TestBlockingReturnsToFullAllowanceAsReadyThread: with one proc, a
// thread whose call ends while another thread holds that proc cannot
// continue at once; it must queue like any ready thread and run when the
// holder dispatches — not take a second token, and not be lost.
func TestBlockingReturnsToFullAllowanceAsReadyThread(t *testing.T) {
	pl := proc.New(1)
	s := New(pl, Options{})
	release := make(chan struct{})
	var order []string
	runOrHang(t, s, time.Minute, func() {
		s.Fork(func() { // runs first: Fork queues the parent on a one-proc system
			s.Blocking(func() { <-release })
			order = append(order, "blocked thread resumed")
		})
		// The child is inside its call and handed the proc back, which is
		// how this (parent) thread got to run.  End the call while holding
		// the only proc, and hold it until the child has queued.
		close(release)
		for !s.pending() {
			runtime.Gosched()
		}
		if live := pl.Live(); live != 1 {
			t.Errorf("live = %d while holding the only proc, want 1", live)
		}
		order = append(order, "holder dispatches")
	})
	if len(order) != 2 || order[0] != "holder dispatches" {
		t.Fatalf("order = %q: the returning thread must wait its turn on the ready queue", order)
	}
	if pl.Stats().Created != 1 {
		t.Errorf("created %d tokens on a one-proc platform", pl.Stats().Created)
	}
}

// TestBlockingHandsTheProcToQueuedWork: entering Blocking with ready
// threads queued restarts a proc on Dispatch, so the queue drains while
// the caller is in its call — the whole point of releasing.
func TestBlockingHandsTheProcToQueuedWork(t *testing.T) {
	s := newSys(1, Options{})
	var ran atomic.Int32
	runOrHang(t, s, time.Minute, func() {
		for i := 0; i < 5; i++ {
			s.Fork(func() { ran.Add(1) }) // children run, parent re-queued: 5 done here
		}
		s.Fork(func() {
			s.Yield() // still queued when the root blocks
			ran.Add(1)
		})
		s.Blocking(func() {
			for ran.Load() < 6 {
				runtime.Gosched()
			}
		})
	})
	if ran.Load() != 6 {
		t.Fatalf("ran = %d, want 6", ran.Load())
	}
}

// TestExternalRescheduleStartsAnIdleProc: a thread parked with every
// proc released — its system alive only because another thread is
// inside Blocking — is made ready by a goroutine that is no proc of the
// system.  Nothing inside will dispatch, so the enqueue itself must
// acquire the proc that runs it.
func TestExternalRescheduleStartsAnIdleProc(t *testing.T) {
	const rounds = 500
	pl := proc.New(2)
	s := New(pl, Options{})
	hold := make(chan struct{})
	resumed := 0
	var outside sync.WaitGroup // the counter is bumped after the proc is started
	runOrHang(t, s, time.Minute, func() {
		s.Fork(func() { s.Blocking(func() { <-hold }) }) // keeps the platform alive
		for i := 0; i < rounds; i++ {
			cont.Callcc(func(k *core.UnitCont) core.Unit {
				id := s.ID()
				outside.Add(1)
				go func() { // the outside world
					defer outside.Done()
					for pl.Live() != 0 {
						runtime.Gosched()
					}
					s.Reschedule(func() { cont.Throw(k, core.Unit{}) }, id)
				}()
				s.Dispatch() // nothing ready: the proc is released
				return core.Unit{}
			})
			resumed++
		}
		close(hold)
	})
	outside.Wait()
	if resumed != rounds {
		t.Fatalf("resumed %d of %d times", resumed, rounds)
	}
	if got := pl.Metrics().Snapshot().Get("threads.external_wakes"); got < rounds {
		t.Errorf("threads.external_wakes = %d, want at least %d", got, rounds)
	}
}

// TestWakeSignalsCoalesceAndNeverBlock: any number of signals before a
// wait make that one wait return; a second wait blocks again.
func TestWakeSignalsCoalesceAndNeverBlock(t *testing.T) {
	s := newSys(1, Options{})
	w := NewWake()
	var second atomic.Bool
	runOrHang(t, s, time.Minute, func() {
		for i := 0; i < 10; i++ {
			w.Signal()
		}
		s.Await(w) // returns at once
		go func() {
			for s.Platform().Live() != 0 {
				runtime.Gosched()
			}
			second.Store(true)
			w.Signal()
		}()
		s.Await(w)
		if !second.Load() {
			t.Error("second Await returned on a stale signal")
		}
	})
}

// TestBlockingTracedNoRace: Blocking's release and re-acquire emit on
// the trace rings like any other; under -race this fails if a ring ever
// has two writers across the hand-back and the claim.
func TestBlockingTracedNoRace(t *testing.T) {
	const maxProcs = 3
	tr := trace.New(maxProcs, 256)
	tr.Enable()
	s := New(proc.New(maxProcs), Options{Tracer: tr})
	runOrHang(t, s, time.Minute, func() {
		for i := 0; i < 12; i++ {
			s.Fork(func() {
				for j := 0; j < 50; j++ {
					s.Blocking(runtime.Gosched)
					s.Yield()
				}
			})
		}
	})
	for _, e := range tr.Events() {
		if e.Proc < 0 || e.Proc >= maxProcs {
			t.Fatalf("event %q on ring %d, want [0,%d)", e.Name, e.Proc, maxProcs)
		}
	}
}
