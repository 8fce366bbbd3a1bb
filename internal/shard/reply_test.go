package shard

// Unit tests for the reply path's completion structures: the group
// countdown's open/seal bias accounting (cells may deliver before the
// final membership is known), and the adaptive spin discipline.

import (
	"testing"

	"repro/internal/serve"
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

// TestSpinWaitAdaptsBudget: a wait that overruns into parks halves the
// budget; spin-phase wins double it back toward the cap, never past it.
func TestSpinWaitAdaptsBudget(t *testing.T) {
	sp := newSpinState(64)
	if sp.budget != 64 || sp.min != 1 || sp.max != 64 {
		t.Fatalf("fresh state %+v", sp)
	}

	// Condition never holds during the spin phase: all 64 yields spent,
	// then parks until the 3rd park flips it.
	var parksSeen int
	cond := func() bool { return parksSeen >= 3 }
	spins, parks := spinWait(cond, &sp, func() {}, func(int64) { parksSeen++ })
	if spins != 64 || parks != 3 {
		t.Fatalf("spent (%d spins, %d parks), want (64, 3)", spins, parks)
	}
	if sp.budget != 32 {
		t.Errorf("budget after a parked wait = %d, want 32 (halved)", sp.budget)
	}

	// Repeated parked waits keep halving, floored at min.
	for i := 0; i < 10; i++ {
		parksSeen = 0
		spinWait(cond, &sp, func() {}, func(int64) { parksSeen++ })
	}
	if sp.budget != sp.min {
		t.Errorf("budget after sustained parking = %d, want floor %d", sp.budget, sp.min)
	}

	// A spin-phase win doubles the budget back toward the cap.
	yields := 0
	won, wonParks := spinWait(func() bool { return yields >= 1 }, &sp, func() { yields++ }, func(int64) { t.Fatal("parked on an imminent condition") })
	if won != 1 || wonParks != 0 {
		t.Fatalf("spent (%d spins, %d parks), want (1, 0)", won, wonParks)
	}
	if sp.budget != 2 {
		t.Errorf("budget after a spin win = %d, want 2 (doubled)", sp.budget)
	}
	for i := 0; i < 10; i++ {
		spinWait(func() bool { return true }, &sp, func() { t.Fatal("yielded on a true condition") }, nil)
	}
	if sp.budget != sp.max {
		t.Errorf("budget after sustained wins = %d, want cap %d", sp.budget, sp.max)
	}
}

// TestNoAllocsReplyPath: the steady-state completion machinery — group
// open/seal, cell delivery, the done poll, and a spin-phase wait — must
// not touch the heap; it runs once per forwarded batch on the hot path.
func TestNoAllocsReplyPath(t *testing.T) {
	grp := &replyGroup{}
	cells := make([]reply, 8)
	sp := newSpinState(64)
	if n := testing.AllocsPerRun(200, func() {
		grp.open()
		for i := range cells {
			cells[i].resp = serve.Response{}
			cells[i].done.Store(false)
			cells[i].grp = grp
		}
		for i := range cells {
			cells[i].deliver(serve.Response{Status: 200})
		}
		grp.seal(len(cells))
		spinWait(grp.done, &sp, func() {}, func(int64) {})
	}); n != 0 {
		t.Fatalf("reply completion path allocates %.1f times per batch", n)
	}
}

// TestSpinWaitChecksAfterEveryYield: a yield can cost a whole scheduler
// rotation, so the condition must be re-checked after each one — a wait
// whose condition holds after the Nth yield spends exactly N.
func TestSpinWaitChecksAfterEveryYield(t *testing.T) {
	sp := newSpinState(64)
	yields := 0
	spins, parks := spinWait(func() bool { return yields >= 3 }, &sp,
		func() { yields++ }, func(int64) { t.Fatal("parked") })
	if spins != 3 || parks != 0 {
		t.Errorf("spent (%d spins, %d parks), want (3, 0)", spins, parks)
	}
}

// TestSpinWaitGrowthClampedAtMax pins the doubling edge: a budget
// sitting above the cap must saturate at max on a win, not double past
// it — and a budget at exactly max must stay there, never growing
// without bound.
func TestSpinWaitGrowthClampedAtMax(t *testing.T) {
	sp := spinState{budget: 1 << 40, min: 1, max: 64}
	spinWait(func() bool { return true }, &sp, nil, nil)
	if sp.budget != 64 {
		t.Errorf("oversized budget after a win = %d, want clamped to 64", sp.budget)
	}
	for i := 0; i < 5; i++ {
		spinWait(func() bool { return true }, &sp, nil, nil)
	}
	if sp.budget != 64 {
		t.Errorf("budget after sustained wins at the cap = %d, want 64", sp.budget)
	}
}

// TestSpinWaitRecoversFromZeroBudget pins the decay edge: a budget that
// reached 0 (the zero-value spinState, or a min of 0) must not stay 0
// forever — 0×2 = 0, so without the clamp such a wait never spins again
// and every future wait goes straight to a park.  A degenerate state
// must converge back into [1, max] and spin on its next waits.
func TestSpinWaitRecoversFromZeroBudget(t *testing.T) {
	var sp spinState // zero value: budget 0, min 0, max 0
	parked := 0
	spinWait(func() bool { return parked >= 1 }, &sp,
		func() { t.Fatal("yielded with a zero budget") }, func(int64) { parked++ })
	if sp.min < 1 || sp.max < 1 {
		t.Fatalf("degenerate bounds not normalized: %+v", sp)
	}
	if sp.budget < 1 {
		t.Fatalf("budget still %d after a parked wait; the floor must hold it ≥ 1", sp.budget)
	}
	// A win from the floor must grow the budget, proving 0 is escaped.
	spinWait(func() bool { return true }, &sp, nil, nil)
	if sp.budget < 1 {
		t.Fatalf("budget %d after a win; doubling from 0 must clamp up to ≥ 1", sp.budget)
	}
	yields := 0
	spins, _ := spinWait(func() bool { return yields >= 1 }, &sp,
		func() { yields++ }, func(int64) { t.Fatal("parked instead of spinning") })
	if spins != 1 {
		t.Errorf("recovered state spun %d, want 1", spins)
	}
}

// TestSpinWaitFixedBudgetIsMemoryless: with min == max (the reply wait
// under Options.FairLocks) spinWait spends exactly the same bounded spin
// phase on every invocation — no adaptation, no history — and overruns
// into parks only past the fixed budget.
func TestSpinWaitFixedBudgetIsMemoryless(t *testing.T) {
	sp := spinState{budget: 8, min: 8, max: 8}
	for round := 0; round < 3; round++ {
		parked := 0
		spins, parks := spinWait(func() bool { return parked >= 2 }, &sp,
			func() {}, func(int64) { parked++ })
		if spins != 8 || parks != 2 {
			t.Fatalf("round %d spent (%d spins, %d parks), want (8, 2) every round", round, spins, parks)
		}
	}
	// Imminent conditions resolve inside the spin phase, no park — and a
	// win does not grow the budget either.
	yields := 0
	spins, parks := spinWait(func() bool { return yields >= 3 }, &sp,
		func() { yields++ }, func(int64) { t.Fatal("parked") })
	if spins != 3 || parks != 0 {
		t.Errorf("spent (%d spins, %d parks), want (3, 0)", spins, parks)
	}
	if sp.budget != 8 {
		t.Errorf("fixed budget drifted to %d, want 8", sp.budget)
	}
}
