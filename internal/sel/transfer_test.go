package sel

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cml"
	"repro/internal/proc"
	"repro/internal/syncx"
	"repro/internal/threads"
)

// unwindCounter is a scheduler for the synchronization clients over a
// threads.System that counts what unwinds through it: a panic passing
// out of its Dispatch, or out of any thunk handed to its Reschedule, is
// counted and re-raised.  A transfer that returns passes through neither
// deferred check with a panic in flight.
type unwindCounter struct {
	*threads.System
	unwinds, dispatches, runs atomic.Int64
}

func (u *unwindCounter) caught() {
	if r := recover(); r != nil {
		u.unwinds.Add(1)
		panic(r)
	}
}

func (u *unwindCounter) Dispatch() {
	u.dispatches.Add(1)
	defer u.caught()
	u.System.Dispatch()
}

func (u *unwindCounter) Reschedule(run func(), id int) {
	u.System.Reschedule(func() {
		u.runs.Add(1)
		defer u.caught()
		run()
	}, id)
}

// TestSchedulerTransfersNeverUnwind drives every blocking construct of
// syncx, cml and sel through a counting scheduler, on a central, a
// distributed and a priority run queue: each park dispatches and each
// wake-up runs a ready thunk, and none of them may end in a panic unwind.
func TestSchedulerTransfersNeverUnwind(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts threads.Options
	}{
		{"central", threads.Options{}},
		{"distributed", threads.Options{Distributed: true}},
		{"priority", threads.Options{NewQueue: threads.NewPrioQueue}},
	} {
		u := &unwindCounter{System: threads.New(proc.New(2), mode.opts)}
		aborts := mAborts.Value()
		u.Run(func() {
			driveSyncx(t, u)
			driveCML(t, u)
			driveSel(t, u)
			forceReceiveAbort(t, u)
		})
		if u.dispatches.Load() == 0 || u.runs.Load() == 0 {
			t.Fatalf("%s: %d dispatches, %d ready thunks run: nothing blocked", mode.name, u.dispatches.Load(), u.runs.Load())
		}
		if mAborts.Value() == aborts {
			t.Errorf("%s: Receive's abort path was never taken", mode.name)
		}
		if n := u.unwinds.Load(); n != 0 {
			t.Errorf("%s: %d scheduler transfers unwound (of %d dispatches, %d ready thunks)",
				mode.name, n, u.dispatches.Load(), u.runs.Load())
		}
	}
}

// join forks each body as a thread and returns once all have finished.
func join(u *unwindCounter, bodies ...func()) {
	wg := syncx.NewWaitGroup(u, len(bodies))
	for _, f := range bodies {
		u.Fork(func() {
			f()
			wg.Done()
		})
	}
	wg.Wait()
}

func driveSyncx(t *testing.T, u *unwindCounter) {
	const n = 8
	sem := syncx.NewSemaphore(u, 0)
	var took atomic.Int32
	waiters := make([]func(), n)
	for i := range waiters {
		waiters[i] = func() { sem.Acquire(); took.Add(1) }
	}
	join(u, append(waiters, func() {
		u.Yield() // let the waiters park first
		sem.Release()
		sem.ReleaseN(n - 1)
	})...)
	if took.Load() != n {
		t.Errorf("semaphore: %d of %d acquires returned", took.Load(), n)
	}

	mu := syncx.NewMutex(u)
	rw := syncx.NewRWLock(u)
	shared := 0
	var bodies []func()
	for i := 0; i < n; i++ {
		bodies = append(bodies, func() {
			mu.Lock()
			u.Yield() // hold it across a yield so others park on it
			shared++
			mu.Unlock()
		}, func() {
			rw.RLock()
			u.Yield()
			rw.RUnlock()
		}, func() {
			rw.Lock()
			u.Yield()
			rw.Unlock()
		})
	}
	join(u, bodies...)
	if shared != n {
		t.Errorf("mutex: %d of %d increments", shared, n)
	}

	cmu := syncx.NewMutex(u)
	cond := syncx.NewCond(u, cmu)
	ready, woke := false, 0
	var condBodies []func()
	for i := 0; i < n; i++ {
		condBodies = append(condBodies, func() {
			cmu.Lock()
			for !ready {
				cond.Wait()
			}
			woke++
			cmu.Unlock()
		})
	}
	join(u, append(condBodies, func() {
		u.Yield()
		cmu.Lock()
		cond.Signal() // a spurious wake-up: ready is still false
		cmu.Unlock()
		u.Yield()
		cmu.Lock()
		ready = true
		cond.Broadcast()
		cmu.Unlock()
	})...)
	if woke != n {
		t.Errorf("cond: %d of %d waiters woke", woke, n)
	}
}

func driveCML(t *testing.T, u *unwindCounter) {
	ch := cml.NewChan[int]()
	sum := 0
	join(u, func() {
		for i := 1; i <= 20; i++ {
			ch.Send(u, i)
		}
	}, func() {
		for i := 0; i < 20; i++ {
			sum += ch.Recv(u)
		}
	})
	if sum != 210 {
		t.Errorf("cml channel: received sum %d, want 210", sum)
	}

	clock := cml.NewClock()
	silent := cml.NewChan[string]()
	var got string
	var fired atomic.Bool
	join(u, func() {
		got = cml.Select(u, silent.RecvEvt(),
			cml.Wrap(clock.AfterEvt(5), func(int64) string { return "timeout" }))
		fired.Store(true)
	}, func() {
		for !fired.Load() {
			u.Yield()
			clock.Advance(u, 1)
		}
	})
	if got != "timeout" {
		t.Errorf("cml select: got %q, want timeout", got)
	}
}

func driveSel(t *testing.T, u *unwindCounter) {
	chans := []*Chan[int]{NewChan[int](u), NewChan[int](u), NewChan[int](u)}
	const rounds = 30
	var sum atomic.Int64
	var bodies []func()
	for i := 0; i < rounds; i++ {
		bodies = append(bodies,
			func() { chans[i%3].Send(i) },
			func() { sum.Add(int64(Receive(chans...))) })
	}
	join(u, bodies...)
	if sum.Load() != rounds*(rounds-1)/2 {
		t.Errorf("sel: received sum %d, want %d", sum.Load(), rounds*(rounds-1)/2)
	}
}

// forceReceiveAbort makes a two-channel Receive take its abort branch.
// With a sender parked on b, an outside goroutine holds b's lock; the
// receiver, when its shuffle visits a first, registers on a and stalls on
// b, and a thread the goroutine starts then sends on a, committing it.  At
// b the receiver finds the sender but not its own committed lock.  A round
// whose shuffle visits b first just takes b's sender once the lock is
// let go; rounds repeat until one aborted.
func forceReceiveAbort(t *testing.T, u *unwindCounter) {
	for round := 0; round < 64; round++ {
		a, b := NewChan[int](u), NewChan[int](u)
		u.Fork(func() { b.Send(2) })
		for !hasSender(b) {
			u.Yield()
		}
		locked, committed := make(chan struct{}), make(chan bool)
		go func() { // holds no proc: it never competes with the receiver for one
			b.chLock.Lock()
			close(locked)
			registered := false
			for deadline := time.Now().Add(100 * time.Millisecond); !registered && time.Now().Before(deadline); {
				runtime.Gosched()
				a.chLock.Lock()
				registered = a.rcvrs.Len() > 0
				a.chLock.Unlock()
			}
			if registered {
				sent := make(chan struct{})
				u.Reschedule(func() { a.Send(1); close(sent); u.Dispatch() }, 1<<20)
				<-sent
			}
			b.chLock.Unlock()
			committed <- registered
		}()
		<-locked
		v := Receive(a, b)
		if !<-committed {
			continue // the receiver took b's sender directly
		}
		if v != 1 {
			t.Errorf("round %d: committed through a, the receiver got %d", round, v)
		}
		if w := b.Receive(); w != 2 { // the sender the abort put back
			t.Errorf("round %d: b's sender was not restored: got %d", round, w)
		}
		return
	}
	t.Error("no round visited a first")
}

func hasSender[T any](c *Chan[T]) bool {
	c.chLock.Lock()
	defer c.chLock.Unlock()
	return c.sndrs.Len() > 0
}

// TestOnlyClientExitsUnwind: in the thread package and the clients built
// on it, the unwinding transfers — cont.Throw and cont.Exit — appear only
// where the paper's signature says control never comes back: release_proc
// (proc.Release) and a thread's exit at arbitrary depth (System.Exit).
// Everything else a scheduler does returns.
func TestOnlyClientExitsUnwind(t *testing.T) {
	want := []string{"proc.(*Platform).Release: cont.Exit", "threads.(*System).Exit: cont.Exit"}
	var got []string
	for _, dir := range []string{"../cml", "../sel", "../syncx", "../threads", "../proc"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no Go files (%v)", dir, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				ast.Inspect(fn, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						if x, ok := sel.X.(*ast.Ident); ok && x.Name == "cont" &&
							(sel.Sel.Name == "Throw" || sel.Sel.Name == "Exit") {
							got = append(got, fmt.Sprintf("%s.%s: cont.%s", f.Name.Name, funcName(fn), sel.Sel.Name))
						}
					}
					return true
				})
			}
		}
	}
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("unwinding transfers in non-test code:\n\t%s\nwant exactly:\n\t%s",
			strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}

// funcName renders a declaration as pkg-relative Name or (*Recv).Name.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	star := ""
	if p, ok := recv.(*ast.StarExpr); ok {
		star, recv = "*", p.X
	}
	switch g := recv.(type) {
	case *ast.IndexExpr:
		recv = g.X
	case *ast.IndexListExpr:
		recv = g.X
	}
	return fmt.Sprintf("(%s%s).%s", star, recv.(*ast.Ident).Name, fn.Name.Name)
}
