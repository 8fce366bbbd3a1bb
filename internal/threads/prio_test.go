package threads

import (
	"sync/atomic"
	"testing"

	"repro/internal/proc"
)

func TestPrioHigherRunsFirst(t *testing.T) {
	s := New(proc.New(1), Options{NewQueue: NewPrioQueue})
	var order []int
	s.Run(func() {
		// Park several threads at distinct priorities, then let the
		// dispatcher drain them: it must run them in priority order, not
		// creation order.
		for _, prio := range []int{5, 1, 9, 3, 7} {
			prio := prio
			s.Fork(func() {
				s.YieldAt(prio) // park self at the assigned priority
				order = append(order, prio)
			}) // Fork re-queues the root at priority 0, so it keeps forking
		}
	})
	want := []int{1, 3, 5, 7, 9}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestPrioStarvationByDesign(t *testing.T) {
	// Strict priority scheduling means a low-priority thread runs only
	// when nothing higher is ready — the policy really is the queue.
	s := New(proc.New(1), Options{NewQueue: NewPrioQueue})
	var order []string
	s.Run(func() {
		s.Fork(func() {
			s.YieldAt(10)
			order = append(order, "low")
		})
		s.Fork(func() {
			s.YieldAt(1)
			order = append(order, "high")
			s.YieldAt(1)
			order = append(order, "high2")
		})
	})
	if len(order) != 3 || order[0] != "high" || order[1] != "high2" || order[2] != "low" {
		t.Fatalf("order = %v", order)
	}
}

func TestPrioIDsStillUnique(t *testing.T) {
	s := New(proc.New(1), Options{NewQueue: NewPrioQueue})
	seen := map[int]bool{}
	var ids []int
	s.Run(func() {
		for i := 0; i < 10; i++ {
			s.Fork(func() {
				ids = append(ids, s.ID())
			})
		}
	})
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate thread id %d", id)
		}
		seen[id] = true
	}
}

// TestPrioLockDisciplinePreventsInversion pins the discipline the
// pub/sub delivery world depends on (internal/pubsub/qos.go): a shared
// lock is never held across a Yield, so on a strict-priority scheduler
// with one proc a high-priority claimant can never spin above an
// unschedulable low-priority holder — the classic inversion livelock.
// The holder runs first (forked before the claimant exists) and takes
// the lock once per iteration, always releasing before yielding; the
// claimant then outranks it and must find the lock free on every
// attempt.  If the release-before-yield discipline (or the scheduler's
// run-to-yield atomicity) regresses, contended attempts become nonzero
// and — rather than hanging the suite — the bounded retry surfaces it.
func TestPrioLockDisciplinePreventsInversion(t *testing.T) {
	s := New(proc.New(1), Options{NewQueue: NewPrioQueue})
	var lock atomic.Int32 // 0 = free, 1 = held
	var holderTurns, claimerTurns, contended int
	const iters = 50
	s.Run(func() {
		// Low-priority holder: starts before the claimant exists, so it
		// demonstrably interleaves lock ownership with the claimant's
		// attempts rather than running after it.
		s.Fork(func() {
			for i := 0; i < iters; i++ {
				if !lock.CompareAndSwap(0, 1) {
					contended++
					continue
				}
				holderTurns++
				lock.Store(0) // release BEFORE the yield — the discipline
				s.YieldAt(9)
			}
		})
		s.Fork(func() {
			for i := 0; i < iters; i++ {
				got := false
				for try := 0; try < 4; try++ {
					if lock.CompareAndSwap(0, 1) {
						got = true
						break
					}
					contended++
					s.YieldAt(1)
				}
				if !got {
					return // counted; the test fails on contended != 0
				}
				claimerTurns++
				lock.Store(0)
				s.YieldAt(1)
			}
		})
	})
	if contended != 0 {
		t.Fatalf("contended lock attempts = %d, want 0: a yield happened with the lock held", contended)
	}
	if holderTurns != iters || claimerTurns != iters {
		t.Fatalf("holder=%d claimer=%d, want both = %d", holderTurns, claimerTurns, iters)
	}
}

// TestPrioFairShareMixedDispatchers is the delivery world's dispatch
// loop in miniature, run with the race detector in mind: three
// dispatcher threads on two procs claim quanta from the tenant with the
// least virtual time (lock dropped before any yield), then re-queue
// themselves at that tenant's normalized virtual time.  The noisy
// tenant has a long expensive backlog enqueued first; the quiet
// tenant's few cheap jobs must still all complete in the first third of
// the combined completion order — fair share, not FIFO.
func TestPrioFairShareMixedDispatchers(t *testing.T) {
	type job struct {
		tenant string
		cost   int
	}
	type tstate struct {
		vtime float64
		q     []job
	}
	tenants := map[string]*tstate{"noisy": {}, "quiet": {}}
	for i := 0; i < 30; i++ {
		tenants["noisy"].q = append(tenants["noisy"].q, job{"noisy", 5})
	}
	for i := 0; i < 5; i++ {
		tenants["quiet"].q = append(tenants["quiet"].q, job{"quiet", 1})
	}

	var lock atomic.Int32
	acquire := func(s *System, prio int) {
		for !lock.CompareAndSwap(0, 1) {
			s.YieldAt(prio) // never spin without rescheduling
		}
	}
	release := func() { lock.Store(0) }

	var order []string // guarded by lock
	s := New(proc.New(2), Options{NewQueue: NewPrioQueue})
	dispatcher := func() {
		prio := 0
		for {
			acquire(s, prio)
			var min *tstate
			for _, ts := range tenants {
				if len(ts.q) > 0 && (min == nil || ts.vtime < min.vtime) {
					min = ts
				}
			}
			if min == nil {
				release()
				return
			}
			j := min.q[0]
			min.q = min.q[1:]
			min.vtime += float64(j.cost)
			order = append(order, j.tenant)
			low := min.vtime
			for _, ts := range tenants {
				if len(ts.q) > 0 && ts.vtime < low {
					low = ts.vtime
				}
			}
			prio = int(min.vtime - low)
			release()
			s.YieldAt(prio) // lock NOT held across the yield
		}
	}
	s.Run(func() {
		s.Fork(dispatcher)
		s.Fork(dispatcher)
		dispatcher()
	})

	if len(order) != 35 {
		t.Fatalf("completions = %d, want 35", len(order))
	}
	lastQuiet := -1
	for i, tn := range order {
		if tn == "quiet" {
			lastQuiet = i
		}
	}
	if lastQuiet < 0 || lastQuiet > 12 {
		t.Fatalf("last quiet completion at index %d of %d, want within the first 13 — "+
			"fair share must let the cheap tenant overtake the noisy backlog", lastQuiet, len(order))
	}
}
