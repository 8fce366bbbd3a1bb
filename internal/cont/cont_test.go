package cont

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gls"
)

// withBaton runs f on a goroutine carrying a dummy baton, simulating code
// running on a proc, and waits for the whole continuation web to settle.
func withBaton(t *testing.T, f func()) {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		gls.Set("test-baton")
		defer func() {
			gls.Del()
			done <- recover()
		}()
		f()
	}()
	if r := <-done; r != nil && !IsExit(r) {
		t.Fatalf("panic: %v", r)
	}
}

func TestCallccImplicitReturn(t *testing.T) {
	withBaton(t, func() {
		v := Callcc(func(k *Cont[int]) int { return 41 + 1 })
		if v != 42 {
			t.Errorf("Callcc = %d, want 42", v)
		}
	})
}

func TestCallccThrowFromBody(t *testing.T) {
	withBaton(t, func() {
		v := Callcc(func(k *Cont[string]) string {
			Throw(k, "thrown")
			return "unreachable" // Throw never returns
		})
		if v != "thrown" {
			t.Errorf("Callcc = %q, want thrown", v)
		}
	})
}

// TestCallccBodyThatHandedItsBatonOnIsNotThrownFor: a body that hands its
// baton to another continuation (Resume — a scheduler's dispatch) and then
// returns has transferred control, and Callcc must not throw for it as
// well.  The continuation handed to passes the baton straight back to the
// body's own continuation with another value, so an implicit throw as
// well would be a second resume, which panics, or the wrong value.
func TestCallccBodyThatHandedItsBatonOnIsNotThrownFor(t *testing.T) {
	other, mine := make(chan *Cont[Unit], 1), make(chan *Cont[int], 1)
	go func() {
		Suspend(func(k *Cont[Unit]) { other <- k })
		Resume(<-mine, 2)
	}()
	withBaton(t, func() {
		o := <-other
		v := Callcc(func(k *Cont[int]) int {
			mine <- k
			Resume(o, Unit{})
			return 1 // holds no baton: not an implicit throw
		})
		if v != 2 {
			t.Errorf("Callcc = %d, want the 2 it was resumed with", v)
		}
	})
}

func TestThrowAcrossCaptures(t *testing.T) {
	// Capture a continuation and throw to it from a nested continuation
	// body — the cross-context control transfer at the heart of Fig. 3's
	// dispatch.  The nested body's own continuation is deliberately
	// abandoned, as dispatch abandons the proc's previous thread.
	withBaton(t, func() {
		got := Callcc(func(k *Cont[int]) int {
			Callcc(func(j *Cont[Unit]) Unit {
				Throw(k, 10)
				return Unit{}
			})
			return -1 // parked forever on j; never runs
		})
		if got != 10 {
			t.Errorf("Callcc = %d, want 10", got)
		}
	})
}

func TestOneShotEnforced(t *testing.T) {
	withBaton(t, func() {
		var saved *Cont[int]
		v := Callcc(func(k *Cont[int]) int {
			saved = k
			Throw(k, 1)
			return 0
		})
		if v != 1 {
			t.Fatalf("first throw delivered %d, want 1", v)
		}
		caught := make(chan any, 1)
		Callcc(func(j *Cont[Unit]) Unit {
			func() {
				defer func() { caught <- recover() }()
				Throw(saved, 2)
			}()
			return Unit{}
		})
		r := <-caught
		if r == nil {
			t.Error("second throw did not panic")
		} else if IsExit(r) {
			t.Error("second throw unwound instead of reporting reuse")
		}
	})
}

func TestUsedFlag(t *testing.T) {
	withBaton(t, func() {
		var saved *Cont[int]
		Callcc(func(k *Cont[int]) int { saved = k; return 0 })
		if !saved.Used() {
			t.Error("implicitly returned continuation not marked used")
		}
	})
}

func TestBatonTravelsWithThrow(t *testing.T) {
	// A continuation captured under baton A and thrown under baton B must
	// resume observing baton B: "the datum follows control".
	resumed := make(chan any, 1)
	ready := make(chan *Cont[Unit], 1)
	go func() {
		gls.Set("proc-A")
		defer func() { recover(); gls.Del() }()
		Callcc(func(k *Cont[Unit]) Unit {
			ready <- k
			Exit() // abandon this body; k stays parked
			return Unit{}
		})
		b, _ := gls.Get()
		resumed <- b
	}()
	k := <-ready
	go func() {
		gls.Set("proc-B")
		defer func() { recover(); gls.Del() }()
		Throw(k, Unit{})
	}()
	if b := <-resumed; b != "proc-B" {
		t.Fatalf("resumed baton = %v, want proc-B", b)
	}
}

func TestCallccOutsidePlatformPanics(t *testing.T) {
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		Callcc(func(k *Cont[int]) int { return 0 })
	}()
	if r := <-done; r == nil {
		t.Fatal("Callcc without a baton did not panic")
	}
}

func TestDeepNesting(t *testing.T) {
	withBaton(t, func() {
		// A chain of nested callccs, each incrementing; exercises goroutine
		// hand-off depth.
		sum := 0
		for i := 0; i < 100; i++ {
			sum += Callcc(func(k *Cont[int]) int { Throw(k, 1); return 0 })
		}
		if sum != 100 {
			t.Errorf("sum = %d, want 100", sum)
		}
	})
}

func BenchmarkCallccThrow(b *testing.B) {
	done := make(chan struct{})
	go func() {
		gls.Set("bench")
		defer gls.Del()
		for i := 0; i < b.N; i++ {
			Callcc(func(k *Cont[int]) int { Throw(k, i); return 0 })
		}
		close(done)
	}()
	<-done
}

func BenchmarkCallccReturn(b *testing.B) {
	done := make(chan struct{})
	go func() {
		gls.Set("bench")
		defer gls.Del()
		for i := 0; i < b.N; i++ {
			Callcc(func(k *Cont[int]) int { return i })
		}
		close(done)
	}()
	<-done
}

func TestManyConcurrentContinuationWebs(t *testing.T) {
	// Many independent goroutine "procs", each running deep chains of
	// callcc/throw concurrently: exercises the handoff protocol and gls
	// hygiene under parallelism.
	const webs = 16
	done := make(chan int, webs)
	for w := 0; w < webs; w++ {
		w := w
		go func() {
			gls.Set(w)
			defer gls.Del()
			sum := 0
			for i := 0; i < 200; i++ {
				sum += Callcc(func(k *Cont[int]) int { Throw(k, 1); return 0 })
			}
			done <- sum
		}()
	}
	for w := 0; w < webs; w++ {
		if got := <-done; got != 200 {
			t.Fatalf("web summed %d, want 200", got)
		}
	}
}

func TestBatonNotLeakedAfterWebs(t *testing.T) {
	before := gls.Len()
	doneCh := make(chan struct{})
	go func() {
		gls.Set("w")
		defer gls.Del()
		for i := 0; i < 50; i++ {
			Callcc(func(k *Cont[int]) int { Throw(k, i); return 0 })
		}
		close(doneCh)
	}()
	<-doneCh
	// Body goroutines clean their entries as they exit; allow a moment
	// for the last few deferred Dels.
	deadline := time.Now().Add(2 * time.Second)
	for gls.Len() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if gls.Len() > before {
		t.Fatalf("gls entries leaked: %d -> %d", before, gls.Len())
	}
}

// ---- carriers -------------------------------------------------------

// parked returns a unit continuation whose goroutine parks holding no
// baton (Suspend) and, once thrown to, drops the baton it adopts and
// closes done.
func parked() (k *Cont[Unit], done chan struct{}) {
	kch := make(chan *Cont[Unit], 1)
	done = make(chan struct{})
	go func() {
		Suspend(func(k *Cont[Unit]) { kch <- k })
		gls.Del()
		close(done)
	}()
	return <-kch, done
}

// jobEndings are the ways a job can end; each returns the body to run
// and what to wait on for the control transfer it makes, if any.
var jobEndings = []struct {
	name string
	body func() (f func(), transferred chan struct{})
}{
	{"plain return", func() (func(), chan struct{}) { return func() {}, nil }},
	{"Exit", func() (func(), chan struct{}) { return Exit, nil }},
	{"Throw", func() (func(), chan struct{}) {
		k, done := parked()
		return func() { Throw(k, Unit{}) }, done
	}},
	{"Resume", func() (func(), chan struct{}) {
		k, done := parked()
		return func() { Resume(k, Unit{}) }, done
	}},
	{"Throw under a user defer that runs", func() (func(), chan struct{}) {
		k, done := parked()
		return func() {
			ran := false
			defer func() {
				if !ran {
					panic("user defer ran twice or not at all")
				}
			}()
			defer func() { ran = true }()
			Throw(k, Unit{})
		}, done
	}},
}

// (Baselines below are upper bounds: an earlier test's goroutines may still
// be clearing their batons when one is sampled, so gls.Len can only be
// checked for growth.)

// TestJobFrameLeavesNoBaton runs the carrier's per-job frame on a plain
// goroutine standing in for one: however a job ends, the goroutine is
// left holding no baton — which is exactly what the next job on it finds
// before its own is installed, the loop doing nothing in between.
func TestJobFrameLeavesNoBaton(t *testing.T) {
	base := gls.Len()
	for _, end := range jobEndings {
		f, transferred := end.body()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for round, baton := range []string{"first", "second"} {
				if b, held := gls.Get(); held {
					t.Errorf("%s: round %d starts holding %v", end.name, round, b)
				}
				body := f
				if round == 1 {
					body = func() {} // the job after the one under test
				}
				job{baton, func() {
					if b, _ := gls.Get(); b != baton {
						t.Errorf("%s: job sees baton %v, want %v", end.name, b, baton)
					}
					body()
				}}.run()
			}
			if b, held := gls.Get(); held {
				t.Errorf("%s: left holding %v", end.name, b)
			}
		}()
		<-done
		if transferred != nil {
			<-transferred
		}
		if n := gls.Len(); n > base {
			t.Errorf("%s: gls.Len = %d, want baseline %d", end.name, n, base)
		}
	}
}

// runOnCarrier runs f as a job under baton b through Go, and returns the
// goroutine it ran on and the baton it saw there once that goroutine is
// back on the free list.  Nothing else may be using the list meanwhile.
func runOnCarrier(b any, f func()) (id uint64, saw any) {
	type at struct {
		id  uint64
		saw any
	}
	started, release := make(chan at, 1), make(chan struct{})
	Go(b, func() {
		v, _ := gls.Get()
		started <- at{gls.ID(), v}
		<-release
		f()
	})
	a := <-started
	listed := idle.len() // not counting this carrier: it is mid-job
	close(release)
	for idle.len() <= listed { // it lists itself after its frame has unwound
		runtime.Gosched()
	}
	return a.id, a.saw
}

// TestCarrierReusedAcrossJobs: a job started through Go after another has
// ended, in each of the ways one can, runs on the goroutine the first one
// left idle, under its own baton, and an idle carrier holds none.
func TestCarrierReusedAcrossJobs(t *testing.T) {
	base := gls.Len()
	for _, end := range jobEndings {
		f, transferred := end.body()
		id, _ := runOnCarrier("first", f)
		if transferred != nil {
			<-transferred
		}
		if n := gls.Len(); n > base {
			t.Errorf("%s: an idle carrier holds a baton: gls.Len = %d, want %d", end.name, n, base)
		}
		if next, saw := runOnCarrier("second", func() {}); next != id || saw != "second" {
			t.Errorf("%s: next job ran on g %#x under %v, want g %#x under second", end.name, next, saw, id)
		}
		if n := gls.Len(); n > base {
			t.Errorf("%s: gls.Len = %d after the next job, want %d", end.name, n, base)
		}
	}
}

// TestJobPanicPropagates: a panic that is not the package's unwind leaves
// the per-job frame with its original value (and the baton cleared).
func TestJobPanicPropagates(t *testing.T) {
	type custom struct{ n int }
	got := make(chan any, 1)
	go func() {
		defer func() {
			r := recover()
			if _, held := gls.Get(); held {
				t.Error("baton survives a panicking job")
			}
			got <- r
		}()
		job{"b", func() { panic(custom{7}) }}.run()
	}()
	if r := <-got; r != (custom{7}) {
		t.Fatalf("recovered %#v, want %#v", r, custom{7})
	}
}

// len counts the idle carriers; exact only while nothing pushes or pops.
func (l *freeList) len() int {
	n := 0
	for i := uint32(l.occupied.Load()); i != 0; i = l.seats[i].next.Load() {
		n++
	}
	return n
}

func TestFreeListBoundedLIFO(t *testing.T) {
	l := newFreeList()
	cs := make([]*carrier, maxIdle+5)
	for i := range cs {
		cs[i] = new(carrier)
		if ok := l.push(cs[i]); ok != (i < maxIdle) {
			t.Fatalf("push %d reported %v with bound %d", i, ok, maxIdle)
		}
	}
	if n := l.len(); n != maxIdle {
		t.Fatalf("list holds %d, want %d", n, maxIdle)
	}
	for i := maxIdle - 1; i >= 0; i-- {
		if c := l.pop(); c != cs[i] {
			t.Fatalf("pop returned carrier %p, want the %dth pushed %p", c, i, cs[i])
		}
	}
	if c := l.pop(); c != nil {
		t.Fatalf("pop on an empty list returned %p", c)
	}
}

// TestFreeListConcurrent hammers one list from many goroutines: a carrier
// popped is owned by its popper alone until pushed back (a seat stack that
// mishandled a recycled seat would hand one out twice or lose it).
func TestFreeListConcurrent(t *testing.T) {
	const workers, rounds = 8, 20000
	l := newFreeList()
	type owned struct {
		carrier
		held atomic.Bool
	}
	all := make(map[*carrier]*owned)
	for i := 0; i < maxIdle/2; i++ {
		o := new(owned)
		all[&o.carrier] = o
		l.push(&o.carrier)
	}
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < rounds; i++ {
				c := l.pop()
				if c == nil {
					runtime.Gosched()
					continue
				}
				o := all[c]
				if !o.held.CompareAndSwap(false, true) {
					t.Error("carrier handed to two poppers at once")
					return
				}
				o.held.Store(false)
				if !l.push(c) {
					t.Error("push refused below the bound")
					return
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	if n := l.len(); n != len(all) {
		t.Fatalf("list holds %d carriers after the run, want %d", n, len(all))
	}
}

// TestBurstAboveBoundFallsBackAndDrains: more simultaneous jobs than the
// free list has seats all run (the overflow on fresh goroutines), and when
// they finish at most maxIdle carriers stay; the rest exit.
func TestBurstAboveBoundFallsBackAndDrains(t *testing.T) {
	const burst = 3 * maxIdle
	baseG, baseLen := runtime.NumGoroutine(), gls.Len()
	gate := make(chan struct{})
	started := make(chan struct{}, burst)
	for i := 0; i < burst; i++ {
		Go(i, func() {
			started <- struct{}{}
			<-gate
		})
	}
	for i := 0; i < burst; i++ {
		<-started
	}
	if n := gls.Len(); n < burst || n > baseLen+burst {
		t.Errorf("gls.Len = %d with %d jobs running, want %d", n, burst, baseLen+burst)
	}
	close(gate)
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseG+maxIdle || gls.Len() > baseLen {
		if n := idle.len(); n > maxIdle {
			t.Fatalf("free list holds %d carriers, bound is %d", n, maxIdle)
		}
		if time.Now().After(deadline) {
			t.Fatalf("burst did not drain: %d goroutines (base %d + bound %d), gls.Len %d (base %d)",
				runtime.NumGoroutine(), baseG, maxIdle, gls.Len(), baseLen)
		}
		runtime.Gosched()
	}
	if n := idle.len(); n > maxIdle {
		t.Fatalf("free list holds %d carriers, bound is %d", n, maxIdle)
	}
}
