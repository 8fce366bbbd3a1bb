package shard

// Unit tests for the reply path's completion structures: the group
// countdown's open/seal bias accounting (cells may deliver before the
// final membership is known), and the wake the completing delivery
// sends to the one thread waiting on the group.

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/proc"
	"repro/internal/serve"
	"repro/internal/threads"
)

// TestReplyGroupCompletesOnLastDelivery: a sealed group publishes
// exactly when its last member delivers, and each delivered cell's
// response is readable through the cell.
func TestReplyGroupCompletesOnLastDelivery(t *testing.T) {
	grp := &replyGroup{}
	grp.open()
	cells := make([]reply, 3)
	for i := range cells {
		cells[i] = reply{grp: grp}
	}
	cells[0].deliver(serve.Response{Status: 200, Body: []byte("a")})
	cells[1].deliver(serve.Response{Status: 404, Body: []byte("b")})
	grp.seal(3)
	if grp.done() {
		t.Fatal("group done with one member undelivered")
	}
	cells[2].deliver(serve.Response{Status: 200, Body: []byte("c")})
	if !grp.done() {
		t.Fatal("group not done after the last delivery")
	}
	for i, want := range []int{200, 404, 200} {
		if cells[i].resp.Status != want {
			t.Errorf("cell %d status %d, want %d", i, cells[i].resp.Status, want)
		}
	}
}

// TestReplyGroupToleratesEarlyDeliveryAndSheds is the open-bias
// contract: deliveries racing ahead of seal, and ring-full sheds that
// shrink the membership below the cells created, must both account
// correctly.
func TestReplyGroupToleratesEarlyDeliveryAndSheds(t *testing.T) {
	grp := &replyGroup{}
	grp.open()
	a := reply{grp: grp}
	_ = reply{grp: grp} // created, but its push will be shed
	a.deliver(serve.Response{Status: 200})
	// Only one cell actually reached a backend: membership is 1.
	grp.seal(1)
	if !grp.done() {
		t.Fatal("group not done: the shed cell must not count")
	}

	// Empty batch (everything shed or answered at the front): done at seal.
	grp.open()
	grp.seal(0)
	if !grp.done() {
		t.Fatal("empty membership must complete immediately")
	}

	// Reuse after completion: open re-arms.
	grp.open()
	if grp.done() {
		t.Fatal("freshly opened group reports done")
	}
	grp.seal(0)
}

// TestNoAllocsReplyPath: the steady-state completion machinery — group
// open/seal, cell delivery (the last one signalling the wake), the done
// poll — must not touch the heap; it runs once per forwarded batch on
// the hot path.
func TestNoAllocsReplyPath(t *testing.T) {
	grp := &replyGroup{wake: threads.NewWake()}
	cells := make([]reply, 8)
	if n := testing.AllocsPerRun(200, func() {
		grp.open()
		for i := range cells {
			cells[i].resp = serve.Response{}
			cells[i].grp = grp
		}
		grp.seal(len(cells))
		for i := range cells {
			cells[i].deliver(serve.Response{Status: 200})
		}
		if !grp.done() {
			panic("group not done after its last delivery")
		}
	}); n != 0 {
		t.Fatalf("reply completion path allocates %.1f times per batch", n)
	}
}

// TestReplyGroupWakesItsWaiter drives the wait protocol through the
// three orders a batch can complete in, on one reused group — so a
// signal left over from, or missing in, one round would derail the
// next.  The "backend" is a plain goroutine: deliveries come from
// outside the waiter's thread system, as they do in the fabric.
func TestReplyGroupWakesItsWaiter(t *testing.T) {
	pl := proc.New(1)
	sys := threads.New(pl, threads.Options{})
	grp := &replyGroup{wake: threads.NewWake()}
	cells := make([]reply, 3)
	arm := func() {
		grp.open()
		for i := range cells {
			cells[i] = reply{grp: grp}
		}
	}
	var waits int
	await := func() { // what connThread's dispatch does after forwardBatch
		waits++
		sys.Await(grp.wake)
	}
	sys.Run(func() {
		for round := 0; round < 200; round++ {
			// Order 1: every cell lands before seal — seal itself completes
			// the group and nobody waits.
			arm()
			for i := range cells {
				cells[i].deliver(serve.Response{Status: 200})
			}
			if !grp.seal(len(cells)) {
				t.Error("seal after every delivery must report the group complete")
				return
			}

			// Order 2: the last delivery comes after the waiter blocked.  The
			// deliverer holds back until the waiter's proc is released, which
			// is what being blocked means.
			arm()
			cells[0].deliver(serve.Response{Status: 200})
			var blocked atomic.Bool
			go func() {
				cells[1].deliver(serve.Response{Status: 200})
				for !blocked.Load() || pl.Live() != 0 {
					runtime.Gosched()
				}
				cells[2].deliver(serve.Response{Status: 404})
			}()
			if grp.seal(len(cells)) {
				t.Error("seal with a cell outstanding reported complete")
				return
			}
			blocked.Store(true)
			await()
			if !grp.done() || cells[2].resp.Status != 404 {
				t.Errorf("round %d: woken before the last delivery was visible", round)
				return
			}

			// Order 3: a full ring shed every push — membership 0, no wait.
			arm()
			if !grp.seal(0) {
				t.Error("seal(0) must report complete: there is nothing to wait for")
				return
			}
		}
	})
	if waits != 200 && !t.Failed() {
		t.Fatalf("waited %d times over 200 rounds, want exactly the 200 order-2 waits", waits)
	}
}
