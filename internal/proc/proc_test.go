package proc

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cont"
	"repro/internal/gls"
	"repro/internal/trace"
)

func TestRunRootReturns(t *testing.T) {
	pl := New(4)
	ran := false
	pl.Run(func() { ran = true }, nil)
	if !ran {
		t.Fatal("root did not run")
	}
	st := pl.Stats()
	if st.Released != 1 {
		t.Fatalf("root not released implicitly: %+v", st)
	}
}

func TestInitialDatum(t *testing.T) {
	pl := New(2)
	var got any
	pl.Run(func() { got = GetDatum() }, 17)
	if got != 17 {
		t.Fatalf("initial datum = %v, want 17", got)
	}
}

func TestSetGetDatum(t *testing.T) {
	pl := New(2)
	var got any
	pl.Run(func() {
		SetDatum("x")
		got = GetDatum()
	}, nil)
	if got != "x" {
		t.Fatalf("datum = %v, want x", got)
	}
}

func TestAcquireRunsInParallel(t *testing.T) {
	pl := New(4)
	var count atomic.Int32
	pl.Run(func() {
		for i := 0; i < 3; i++ {
			cont.Callcc(func(k *cont.Cont[cont.Unit]) cont.Unit {
				// Start a new proc running the rest of *this* thread;
				// the body continues as a separate activity that bumps
				// the counter and releases its proc.
				if err := pl.Acquire(PS{K: k, Datum: 100 + i}); err != nil {
					t.Errorf("Acquire: %v", err)
					cont.Throw(k, cont.Unit{})
				}
				count.Add(1)
				pl.Release()
				return cont.Unit{}
			})
		}
	}, 0)
	if count.Load() != 3 {
		t.Fatalf("count = %d, want 3", count.Load())
	}
}

func TestNoMoreProcs(t *testing.T) {
	pl := New(1) // root takes the only proc
	var err error
	pl.Run(func() {
		err = pl.Acquire(PS{K: newParkedCont(), Datum: nil})
	}, nil)
	if err != ErrNoMoreProcs {
		t.Fatalf("err = %v, want ErrNoMoreProcs", err)
	}
	if pl.Stats().Refused != 1 {
		t.Fatalf("refused = %d, want 1", pl.Stats().Refused)
	}
}

// newParkedCont builds a continuation that is never resumed; only valid
// for Acquire calls that are expected to fail.
func newParkedCont() *cont.Cont[cont.Unit] {
	ch := make(chan *cont.Cont[cont.Unit], 1)
	pl := New(1)
	go pl.Run(func() {
		cont.Callcc(func(k *cont.Cont[cont.Unit]) cont.Unit {
			ch <- k
			pl.Release()
			return cont.Unit{}
		})
	}, nil)
	return <-ch
}

func TestReleaseReuse(t *testing.T) {
	pl := New(2)
	var reused int
	pl.Run(func() {
		for i := 0; i < 5; i++ {
			done := make(chan struct{})
			err := pl.Acquire(PS{K: releaseImmediately(pl, done), Datum: nil})
			if err != nil {
				t.Errorf("Acquire %d: %v", i, err)
				return
			}
			<-done
		}
		reused = pl.Stats().Reused
	}, nil)
	if reused < 4 {
		t.Fatalf("reused = %d, want >= 4 (released procs must be re-used)", reused)
	}
	if pl.Stats().Created > 2 {
		t.Fatalf("created = %d procs, limit 2", pl.Stats().Created)
	}
}

// releaseImmediately returns a continuation that, when started on a fresh
// proc, signals done and releases the proc.
func releaseImmediately(pl *Platform, done chan struct{}) *cont.Cont[cont.Unit] {
	ch := make(chan *cont.Cont[cont.Unit], 1)
	boot := New(1)
	go boot.Run(func() {
		cont.Callcc(func(k *cont.Cont[cont.Unit]) cont.Unit {
			ch <- k
			boot.Release()
			return cont.Unit{}
		})
		// Resumed on a proc of pl.
		close(done)
		pl.Release()
	}, nil)
	return <-ch
}

func TestDatumFollowsProcNotThread(t *testing.T) {
	// A thread that hops procs must observe the datum of the proc it is
	// currently on (paper §3.2: each processor requires a private copy).
	pl := New(2)
	var seen []any
	pl.Run(func() {
		SetDatum("root-datum")
		seen = append(seen, GetDatum())
		cont.Callcc(func(k *cont.Cont[cont.Unit]) cont.Unit {
			if err := pl.Acquire(PS{K: k, Datum: "new-proc-datum"}); err != nil {
				t.Errorf("Acquire: %v", err)
				cont.Throw(k, cont.Unit{})
			}
			// This body still runs on the root proc.
			if GetDatum() != "root-datum" {
				t.Errorf("body datum = %v, want root-datum", GetDatum())
			}
			pl.Release()
			return cont.Unit{}
		})
		// Resumed on the newly acquired proc.
		seen = append(seen, GetDatum())
	}, nil)
	if len(seen) != 2 || seen[0] != "root-datum" || seen[1] != "new-proc-datum" {
		t.Fatalf("seen = %v", seen)
	}
}

func TestQuiescenceWaitsForAllProcs(t *testing.T) {
	pl := New(8)
	var done atomic.Int32
	pl.Run(func() {
		for i := 0; i < 3; i++ {
			cont.Callcc(func(k *cont.Cont[cont.Unit]) cont.Unit {
				if err := pl.Acquire(PS{K: k, Datum: nil}); err != nil {
					cont.Throw(k, cont.Unit{})
				}
				// Busy work on the extra proc before releasing.
				for j := 0; j < 100; j++ {
					runtime.Gosched()
				}
				done.Add(1)
				pl.Release()
				return cont.Unit{}
			})
		}
	}, nil)
	if done.Load() != 3 {
		t.Fatalf("Run returned before procs quiesced: done = %d", done.Load())
	}
}

func TestRunNotReentrant(t *testing.T) {
	pl := New(1)
	pl.Run(func() {
		defer func() {
			if recover() == nil {
				t.Error("nested Run did not panic")
			}
		}()
		pl.Run(func() {}, nil)
	}, nil)
}

func TestMaxProcsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

func TestSelfIDs(t *testing.T) {
	pl := New(3)
	ids := make(chan int, 3)
	pl.Run(func() {
		ids <- Self()
		for i := 0; i < 2; i++ {
			cont.Callcc(func(k *cont.Cont[cont.Unit]) cont.Unit {
				if err := pl.Acquire(PS{K: k, Datum: nil}); err != nil {
					cont.Throw(k, cont.Unit{})
				}
				ids <- Self()
				pl.Release()
				return cont.Unit{}
			})
		}
	}, nil)
	close(ids)
	seen := map[int]bool{}
	for id := range ids {
		seen[id] = true
	}
	if len(seen) == 0 || !seen[0] {
		t.Fatalf("ids = %v, want to include root id 0", seen)
	}
}

// TestPoolInvariantsUnderChurn: thirty acquire/release cycles on a
// three-proc pool must never mint more than three tokens and must re-use
// released ones.
func TestPoolInvariantsUnderChurn(t *testing.T) {
	pl := New(3)
	pl.Run(func() {
		for i := 0; i < 30; i++ {
			done := make(chan struct{})
			err := pl.Acquire(PS{K: releaseImmediately(pl, done), Datum: nil})
			if err != nil {
				t.Errorf("iteration %d: %v", i, err)
				return
			}
			<-done
		}
	}, nil)
	st := pl.Stats()
	if st.Created > 3 {
		t.Fatalf("created %d proc tokens with limit 3", st.Created)
	}
	if st.Reused < 25 {
		t.Fatalf("reused only %d of 30 acquisitions", st.Reused)
	}
}

func TestDynamicLimitRefusesAcquire(t *testing.T) {
	pl := New(4)
	pl.SetLimit(1) // OS grants only one processor
	var err error
	pl.Run(func() {
		err = pl.Acquire(PS{K: newParkedCont(), Datum: nil})
	}, nil)
	if err != ErrNoMoreProcs {
		t.Fatalf("err = %v, want ErrNoMoreProcs under a shrunken limit", err)
	}
}

func TestSetLimitClamps(t *testing.T) {
	pl := New(4)
	pl.SetLimit(0)
	if pl.Limit() != 1 {
		t.Fatalf("limit = %d, want clamp to 1", pl.Limit())
	}
	pl.SetLimit(99)
	if pl.Limit() != 4 {
		t.Fatalf("limit = %d, want clamp to max 4", pl.Limit())
	}
}

func TestRevokedSignal(t *testing.T) {
	pl := New(2)
	pl.Run(func() {
		if pl.Revoked() {
			t.Error("revoked with live <= limit")
		}
		pl.SetLimit(1)
		// Only the root proc is live (1 <= 1): no revocation yet.
		if pl.Revoked() {
			t.Error("revoked with live == limit")
		}
		pl.SetLimit(2)
		done := make(chan struct{})
		if err := pl.Acquire(PS{K: releaseOnSignal(pl, done)}); err != nil {
			t.Errorf("acquire: %v", err)
			return
		}
		pl.SetLimit(1) // now two live against a limit of one
		if !pl.Revoked() {
			t.Error("not revoked with live > limit")
		}
		close(done) // let the second proc release
	}, nil)
}

// releaseOnSignal returns a continuation that waits on done and then
// releases its proc.
func releaseOnSignal(pl *Platform, done chan struct{}) *cont.Cont[cont.Unit] {
	ch := make(chan *cont.Cont[cont.Unit], 1)
	boot := New(1)
	go boot.Run(func() {
		cont.Callcc(func(k *cont.Cont[cont.Unit]) cont.Unit {
			ch <- k
			boot.Release()
			return cont.Unit{}
		})
		<-done
		pl.Release()
	}, nil)
	return <-ch
}

// startRoot runs pl with a root that parks (its proc kept) until the
// returned stop is called, so a test can poke the live platform from
// goroutines that are no procs of it.
func startRoot(pl *Platform) (stop func()) {
	release, done, up := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		pl.Run(func() {
			close(up)
			<-release
		}, nil)
		close(done)
	}()
	<-up
	return func() {
		close(release)
		<-done
	}
}

// TestAcquireFromOutsideThePlatform: Acquire is callable by a goroutine
// that holds no proc — the waker of a thread system it is not part of —
// while the platform runs, and is refused, not a crash, once it has
// quiesced.
func TestAcquireFromOutsideThePlatform(t *testing.T) {
	pl := New(2)
	stop := startRoot(pl)
	ran := make(chan int, 1)
	if err := pl.AcquireFunc(func() {
		ran <- Self()
		pl.Release()
	}, nil); err != nil {
		t.Fatalf("AcquireFunc from outside a running platform: %v", err)
	}
	if id := <-ran; id != 1 {
		t.Errorf("outside-acquired proc id = %d, want 1", id)
	}
	stop()
	if err := pl.AcquireFunc(func() { t.Error("proc started on a quiesced platform") }, nil); err != ErrNoMoreProcs {
		t.Fatalf("Acquire after quiescence = %v, want ErrNoMoreProcs", err)
	}
	if st := pl.Stats(); st.Refused != 1 || st.Acquired != 2 {
		t.Errorf("stats %+v, want 1 refused and 2 acquired (root + one)", st)
	}
}

// TestRefusalNeverTakesTheMutex: with the allowance spent, Acquire
// answers from the idle word — it must return even while the platform
// mutex is held by someone else.
func TestRefusalNeverTakesTheMutex(t *testing.T) {
	pl := New(1)
	stop := startRoot(pl)
	defer stop()
	pl.mu.Lock()
	refused := make(chan error, 1)
	go func() { refused <- pl.AcquireFunc(func() {}, nil) }()
	select {
	case err := <-refused:
		if err != ErrNoMoreProcs {
			t.Errorf("err = %v, want ErrNoMoreProcs", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("a refusal waited for the platform mutex")
	}
	pl.mu.Unlock()
}

// TestForeignProcRefusalStaysOffTheTraceRings: a proc of another
// platform — with an id this platform never issued — is refused here.
// The refusal must be counted but must not be emitted on this
// platform's trace rings, which belong to its own procs alone.
func TestForeignProcRefusalStaysOffTheTraceRings(t *testing.T) {
	tr := trace.New(1, 64)
	tr.Enable()
	home := New(1)
	home.SetTracer(tr)
	stop := startRoot(home)
	defer stop()

	away := New(4)
	away.Run(func() {
		for i := 0; i < 3; i++ { // climb to a proc id the home platform has no ring for
			cont.Callcc(func(k *cont.Cont[cont.Unit]) cont.Unit {
				if err := away.Acquire(PS{K: k}); err != nil {
					t.Errorf("away.Acquire: %v", err)
					cont.Throw(k, cont.Unit{})
				}
				away.Release()
				return cont.Unit{}
			})
		}
		if Self() == 0 {
			t.Error("still on proc 0: the foreign id is not out of the home platform's range")
		}
		if err := home.AcquireFunc(func() {}, nil); err != ErrNoMoreProcs {
			t.Errorf("home.AcquireFunc = %v, want ErrNoMoreProcs", err)
		}
	}, nil)
	if got := home.Stats().Refused; got != 1 {
		t.Errorf("home refused = %d, want 1", got)
	}
	for _, e := range tr.Events() {
		if e.Name == "proc.refuse" {
			t.Errorf("a foreign proc's refusal was emitted on the home platform's ring %d", e.Proc)
		}
	}
}

// TestRevocationIsAnsweredExactlyOnce: four procs reach their safe point
// together after the allowance shrinks to one.  Exactly three leave —
// never all four, which the old check-then-release pair allowed — and
// each one's report says which it did: a proc that left and said it
// stayed would count as staying, and one that stayed and said it left
// would keep Run from returning.
func TestRevocationIsAnsweredExactlyOnce(t *testing.T) {
	for round := 0; round < 200; round++ {
		pl := New(4)
		var stayed atomic.Int32
		start := make(chan struct{})
		safePoint := func() {
			<-start
			if pl.ReleaseIfRevoked(Current()) {
				return
			}
			stayed.Add(1)
			pl.Release()
		}
		pl.Run(func() {
			for i := 0; i < 3; i++ {
				if err := pl.AcquireFunc(safePoint, nil); err != nil {
					t.Errorf("AcquireFunc: %v", err)
				}
			}
			pl.SetLimit(1)
			close(start)
			safePoint()
		}, nil)
		if n := stayed.Load(); n != 1 {
			t.Fatalf("round %d: %d procs stayed under an allowance of 1, want exactly 1", round, n)
		}
	}
}

// TestReleaseUnlessKeepsTheLastProcForQueuedWork: the idle leave is
// refused while work is pending, taken when it is not, and the slot is
// published idle only when it is actually given up.
func TestReleaseUnlessKeepsTheLastProcForQueuedWork(t *testing.T) {
	pl := New(2)
	var left atomic.Bool
	pl.Run(func() {
		p := Current()
		if pl.ReleaseUnless(p, func() bool { return true }) {
			t.Fatal("ReleaseUnless released with work pending")
		}
		if pl.Live() != 1 || !pl.Idle() {
			t.Errorf("after a refused leave: live %d idle %v, want 1 true (one of two slots free)", pl.Live(), pl.Idle())
		}
		pl.SetLimit(1)
		if pl.ReleaseUnless(p, func() bool { return true }) {
			t.Fatal("ReleaseUnless released the last proc with work pending")
		}
		if pl.Idle() {
			t.Error("a refused leave left the slot published as idle")
		}
		if !pl.ReleaseUnless(p, func() bool { return false }) {
			t.Error("ReleaseUnless kept its proc with nothing pending")
		}
		left.Store(true)
	}, nil)
	if !left.Load() || pl.Live() != 0 {
		t.Fatalf("left %v live %d, want the proc released", left.Load(), pl.Live())
	}
}

// TestBlockUnblockRoundTrip: a blocked holder keeps Run waiting with no
// token out, takes a token again when one is free, and is turned away —
// still counted — when the allowance was taken meanwhile.
func TestBlockUnblockRoundTrip(t *testing.T) {
	pl := New(2)
	pl.SetLimit(1)
	pl.Run(func() {
		pl.Block()
		if _, ok := TrySelf(); ok {
			t.Error("a blocked holder still has a proc")
		}
		if pl.Live() != 0 {
			t.Errorf("live = %d inside Block, want 0", pl.Live())
		}
		if !pl.Unblock("back") {
			t.Fatal("Unblock refused with the whole allowance free")
		}
		if GetDatum() != "back" {
			t.Errorf("datum after Unblock = %v", GetDatum())
		}
		// Now lose the slot while blocked: another proc takes it.
		pl.Block()
		hold := make(chan struct{})
		if err := pl.AcquireFunc(func() { <-hold; pl.Release() }, nil); err != nil {
			t.Fatalf("AcquireFunc into the vacated slot: %v", err)
		}
		if pl.Unblock(nil) {
			t.Fatal("Unblock succeeded past the allowance")
		}
		close(hold)
		for !pl.Unblock(nil) { // the turned-away holder is still counted: Run is still waiting
			runtime.Gosched()
		}
	}, nil)
	if pl.Live() != 0 {
		t.Fatalf("live = %d after Run", pl.Live())
	}
}

// TestReleasingReturnLeavesNoBaton: after either leave decision reports
// a release, the calling goroutine holds no proc at all — not the token
// it just gave back, which a concurrent Acquire may already have handed
// to somebody else.
func TestReleasingReturnLeavesNoBaton(t *testing.T) {
	for _, leave := range []struct {
		name string
		f    func(pl *Platform, p *Proc) bool
	}{
		{"ReleaseUnless", func(pl *Platform, p *Proc) bool {
			return pl.ReleaseUnless(p, func() bool { return false })
		}},
		{"ReleaseIfRevoked", func(pl *Platform, p *Proc) bool { return pl.ReleaseIfRevoked(p) }},
	} {
		pl := New(2)
		hold := make(chan struct{})
		pl.Run(func() {
			defer close(hold)
			// A second proc keeps Run waiting while the first is checked,
			// and puts two tokens out under an allowance of one.
			if err := pl.AcquireFunc(func() { <-hold; pl.Release() }, nil); err != nil {
				t.Errorf("%s: AcquireFunc: %v", leave.name, err)
				return
			}
			pl.SetLimit(1)
			if !leave.f(pl, Current()) {
				t.Errorf("%s: reported no release", leave.name)
				return
			}
			if b, held := gls.Get(); held {
				t.Errorf("%s: the goroutine still holds baton %v after a releasing return", leave.name, b)
			}
		}, nil)
	}
}

// TestCallccBodyThatGaveItsProcUpIsNotThrownFor: a Callcc body that
// returns after its proc was given up — the idle leave of a scheduler's
// Dispatch — is not taken for SML's implicit throw: its continuation
// stays parked until somebody resumes it with a proc.
func TestCallccBodyThatGaveItsProcUpIsNotThrownFor(t *testing.T) {
	pl := New(1)
	var parked *cont.Cont[cont.Unit]
	resumedOn := -1
	pl.Run(func() {
		cont.Callcc(func(k *cont.Cont[cont.Unit]) cont.Unit {
			parked = k
			if !pl.ReleaseUnless(Current(), func() bool { return false }) {
				t.Error("ReleaseUnless kept its proc with nothing pending")
			}
			return cont.Unit{}
		})
		resumedOn = Self()
	}, nil)
	if parked.Used() {
		t.Fatal("the body's return threw its continuation")
	}
	// A fresh Run resumes it: the root's rest runs on the new root proc.
	pl.Run(func() { cont.Throw(parked, cont.Unit{}) }, nil)
	if resumedOn != 0 || pl.Live() != 0 {
		t.Fatalf("resumed on proc %d, live %d after Run; want 0 and 0", resumedOn, pl.Live())
	}
}

// TestRunRootThatHandedItsProcOnQuiesces: a root that hands its proc to a
// parked continuation and returns holds no proc, so Run releases nothing
// on its behalf and returns once the continuation releases the proc.
func TestRunRootThatHandedItsProcOnQuiesces(t *testing.T) {
	pl := New(1)
	kch := make(chan *cont.Cont[cont.Unit], 1)
	ranOn := make(chan int, 1)
	go func() {
		cont.Suspend(func(k *cont.Cont[cont.Unit]) { kch <- k })
		ranOn <- Self()
		if !pl.ReleaseUnless(Current(), func() bool { return false }) {
			t.Error("ReleaseUnless kept its proc with nothing pending")
		}
	}()
	k := <-kch
	pl.Run(func() { cont.Resume(k, cont.Unit{}) }, nil)
	if id := <-ranOn; id != 0 {
		t.Errorf("the continuation ran on proc %d, want the root's 0", id)
	}
	if st := pl.Stats(); st.Released != 1 || pl.Live() != 0 {
		t.Fatalf("released %d, live %d after Run; want 1 and 0", st.Released, pl.Live())
	}
}
