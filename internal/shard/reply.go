package shard

// The reply path's completion structures: the single-assignment reply
// cell a forwarded request is answered through, the per-batch countdown
// group that lets a connection thread park once per batch instead of
// once per straggler, and the spin-then-park discipline of that wait.
//
// Like the forward ring (ring.go), everything here crosses the
// front/backend thread-system boundary, so the primitives are bare
// atomics rather than semaphores: a backend worker must never park a
// front thread on the backend's scheduler or vice versa.  The backend
// stores the response then decrements the group's countdown (release);
// the front polls it (acquire) with yields and clock parks of its own.

import (
	"sync/atomic"

	"repro/internal/serve"
)

// reply is the single-assignment completion cell for one forwarded
// request.  Every cell is enrolled in a replyGroup and decrements its
// countdown on delivery, so the batch wait observes "all delivered"
// from a single word.
type reply struct {
	resp serve.Response
	done atomic.Bool
	grp  *replyGroup
}

// deliver publishes the response and marks the cell delivered; the
// group decrement after it is the release edge that makes resp visible
// to the front thread's acquire load in replyGroup.done, and what the
// batched wait parks on.
func (r *reply) deliver(resp serve.Response) {
	r.resp = resp
	r.done.Store(true)
	r.grp.remaining.Add(-1)
}

// openBias is the count parked in a replyGroup while its batch is still
// being forwarded.  Cells can be delivered — and decrement the group —
// before the final membership is known (a ring-full shed drops cells
// mid-forward), so the counter cannot simply start at the batch size:
// it starts at the bias, absorbs early decrements, and seal() retires
// the bias against the real membership.  Any value comfortably above
// every possible in-flight decrement works; 2^40 is unreachable.
const openBias = int64(1) << 40

// replyGroup is the per-batch completion countdown: the last delivery
// drives remaining to zero, publishing the whole batch at once.
type replyGroup struct {
	remaining atomic.Int64
}

// open arms the group for a new batch.  The owning connection thread
// only reuses a group after done() returned true, so the store cannot
// race a straggling delivery.
func (g *replyGroup) open() { g.remaining.Store(openBias) }

// seal fixes the batch membership at members cells, retiring the open
// bias.  After seal, remaining counts exactly the undelivered cells.
func (g *replyGroup) seal(members int) { g.remaining.Add(int64(members) - openBias) }

// done reports whether every sealed member has delivered.  The atomic
// load orders after the final deliver's decrement, which itself orders
// after that cell's response store — so done() implies every member's
// resp is readable.
func (g *replyGroup) done() bool { return g.remaining.Load() == 0 }

// spinState is a connection thread's adaptive reply-spin budget.
// Replies usually land within one clock tick, so spinning (yielding)
// briefly beats parking; but when the routed shard is saturated,
// spinning is pure waste.  The budget backs off exponentially: it
// halves each time a wait overruns it into a park, and doubles back
// toward max each time the spin phase wins, so a thread talking to a
// fast shard spins and a thread stuck behind a deep queue parks almost
// immediately.  The condition is re-checked after every single yield —
// a yield can cost a whole scheduler rotation (the pump's sleep, the
// acceptor's poll window), so skipping checks to "back off" would turn
// microseconds of slack into milliseconds of overshoot.
//
// With min == max the budget is fixed and the wait is memoryless: every
// waiter pays exactly the same bounded spin before parking, whatever
// its history.  That is the reply-wait discipline under
// Options.FairLocks, the reply-side analogue of the claim queue's
// bounded-wait guarantee.
type spinState struct {
	budget int // current spin allowance, in yields
	min    int
	max    int
}

// replySpin caps a reply wait's spin phase, in yields before parking: a
// connection thread's spinState budget, and the fruitless passes a mux
// poller makes over its dispatched batches before napping.
const replySpin = 64

// newSpinState returns a budget starting (and capped) at max yields.
func newSpinState(max int) spinState {
	if max < 1 {
		max = 1
	}
	return spinState{budget: max, min: 1, max: max}
}

// spinWait waits until cond holds: up to budget yields with a check
// after each, then park(1) rounds.  It returns the yields and parks
// spent (metrics inputs) and adapts sp for the next wait.  Both
// adaptation edges clamp defensively: growth saturates at max (no
// unbounded doubling, no overflow past a budget that somehow exceeds
// the cap) and decay floors at min ≥ 1 — so even a degenerate sp (the
// zero value, whose budget of 0 would otherwise stay 0 forever since
// 0×2 = 0) converges back into [min, max] on its next win.
func spinWait(cond func() bool, sp *spinState, yield func(), park func(int64)) (spins, parks int) {
	if sp.max < 1 {
		sp.max = 1
	}
	if sp.min < 1 {
		sp.min = 1
	}
	for {
		if cond() {
			if parks == 0 {
				switch {
				case sp.budget < sp.min:
					sp.budget = sp.min
				case sp.budget > sp.max/2:
					sp.budget = sp.max
				default:
					sp.budget *= 2
				}
			}
			return spins, parks
		}
		if spins < sp.budget {
			yield()
			spins++
			continue
		}
		if parks == 0 {
			if sp.budget /= 2; sp.budget < sp.min {
				sp.budget = sp.min
			}
		}
		park(1)
		parks++
	}
}
